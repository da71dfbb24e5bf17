// repl-warm: ROADMAP path 1, a warm point query through the real
// front-end. One client drives a `soldist_experiment --query` process
// (Physicians, iwc, IC, tau = 2^14, flat backend) with a seeded mix of
// `spread` (1, 4, 8 seeds) and `gain v s1,s2,s3` lines, alternating
// closed-loop segments (one line outstanding) and pipelined batches
// (stdin written ahead). Every reply must equal the in-process
// QueryView answer, rendered the way the REPL renders it.
//
// tau is 2^14 rather than the paper-scale 2^16: the 2^16 arena (5.3 MB)
// spills the 2 MB per-core L2 of the 4-vCPU test host, and its lines/s
// swung 20-30% from run to run with the neighbours' use of the shared
// L3.
//
// The traced run replays the same lines in-process on one thread and
// times parse (util: Split/Trim/ParseInt64), kernel (serve: QueryView)
// and reply (util: JsonObject + ToString); what the pipelined REPL
// spends per line beyond those three is the tools/IO residual. It also
// measures the serve hit path under sharing (hit_path.cc).

#include <algorithm>
#include <thread>

#include "api/session.h"
#include "serve/query_service.h"
#include "util/json.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using soldist::Status;
using soldist::VertexId;

constexpr std::uint64_t kTau = std::uint64_t{1} << 14;
constexpr std::size_t kPoolLines = 4096;
constexpr std::size_t kBatchLines = 10000;

/// A parsed REPL line: command plus vertex ids.
struct Parsed {
  bool gain = false;
  VertexId vertex = 0;
  std::vector<VertexId> seeds;
};

/// The REPL's vertex-list grammar (tools/soldist_experiment.cc), built
/// from the same util calls so the traced parse costs what the REPL's
/// does.
Status ParseVertexList(const std::string& text, VertexId n,
                       std::vector<VertexId>* out) {
  out->clear();
  for (const std::string& field : soldist::Split(text, ',')) {
    const std::string trimmed(soldist::Trim(field));
    if (trimmed.empty()) continue;
    std::int64_t v = 0;
    if (!soldist::ParseInt64(trimmed, &v) || v < 0 ||
        static_cast<VertexId>(v) >= n) {
      return Status::InvalidArgument("bad vertex id '" + trimmed + "'");
    }
    out->push_back(static_cast<VertexId>(v));
  }
  return Status::OK();
}

Status ParseLine(const std::string& line, VertexId n, Parsed* out) {
  const std::string input(soldist::Trim(line));
  const std::size_t space = input.find(' ');
  const std::string cmd = input.substr(0, space);
  const std::string rest(space == std::string::npos
                             ? ""
                             : soldist::Trim(input.substr(space + 1)));
  if (cmd == "spread") {
    out->gain = false;
    return ParseVertexList(rest, n, &out->seeds);
  }
  if (cmd != "gain") return Status::InvalidArgument("unknown command");
  out->gain = true;
  const std::size_t gap = rest.find(' ');
  std::vector<VertexId> vertex;
  Status parsed = ParseVertexList(
      std::string(soldist::Trim(gap == std::string::npos
                                    ? rest
                                    : rest.substr(0, gap))),
      n, &vertex);
  if (parsed.ok() && vertex.size() != 1) {
    parsed = Status::InvalidArgument("usage: gain <vertex> [s1,...]");
  }
  if (!parsed.ok()) return parsed;
  out->vertex = vertex[0];
  return ParseVertexList(
      gap == std::string::npos
          ? std::string()
          : std::string(soldist::Trim(rest.substr(gap + 1))),
      n, &out->seeds);
}

double Kernel(const soldist::serve::QueryView& view, const Parsed& p,
              soldist::serve::QueryScratch* scratch) {
  return p.gain ? view.MarginalGain(p.seeds, p.vertex, scratch)
                : view.Spread(p.seeds, scratch);
}

/// The REPL's reply line for a parsed query and its answer.
std::string Render(const Parsed& p, double answer) {
  soldist::JsonObject record;
  if (p.gain) {
    record.Str("type", "gain")
        .UInt("vertex", p.vertex)
        .UIntArray("seeds", p.seeds)
        .Real("gain", answer);
  } else {
    record.Str("type", "spread")
        .UIntArray("seeds", p.seeds)
        .Real("spread", answer);
  }
  return record.ToString();
}

struct Repl {
  std::unique_ptr<Child> child;
  double ready_s = 0.0;
};

/// Starts the REPL and waits for its `ready` line.
bool StartRepl(const RunArgs& args, std::uint64_t arena_seed, Repl* repl) {
  const double start = Now();
  repl->child = std::make_unique<Child>(std::vector<std::string>{
      args.repl_bin, "--query", "--network", "Physicians", "--prob", "iwc",
      "--tau", std::to_string(kTau), "--seed", std::to_string(arena_seed)});
  if (!repl->child->ok()) return false;
  std::string line;
  if (!repl->child->ReadLine(&line)) return false;
  repl->ready_s = Now() - start;
  return line.find("\"type\":\"ready\"") != std::string::npos &&
         line.find("degraded") == std::string::npos;
}

/// Pipelined: `batches` batches of kBatchLines written ahead by a
/// writer thread and read back in bulk, like `repl < queries > answers`.
/// Appends per-batch lines/s; checks every reply.
void Pipelined(Child* child, const std::vector<QueryLine>& pool,
               const std::vector<std::string>& expected, int batches,
               std::vector<double>* rates, Outcome* out) {
  std::string batch;
  for (std::size_t i = 0; i < kBatchLines; ++i) {
    batch += pool[i % pool.size()].text;
    batch += '\n';
  }
  std::string reply;
  child->SetReadMode(Child::ReadMode::kPoll);
  for (int b = 0; b < batches; ++b) {
    const double start = Now();
    bool wrote = false;
    std::thread writer([&] { wrote = child->Write(batch); });
    std::size_t got = 0;
    std::uint64_t bad = 0;
    for (; got < kBatchLines && child->ReadLine(&reply); ++got) {
      if (reply != expected[got % pool.size()]) ++bad;
    }
    const double wall = Now() - start;
    writer.join();
    out->attempted += kBatchLines;
    out->failed += bad + (kBatchLines - got);
    if (!wrote || got < kBatchLines) {
      out->Fail("REPL pipe closed mid-batch");
      break;
    }
    rates->push_back(static_cast<double>(kBatchLines) / wall);
  }
  child->SetReadMode(Child::ReadMode::kBlock);
}

/// Closed loop for `seconds`: one line outstanding, the client spinning
/// on the reply. Appends round-trip times; `cursor` walks the pool
/// across calls.
void ClosedLoop(Child* child, const std::vector<QueryLine>& pool,
                const std::vector<std::string>& expected, double seconds,
                std::size_t* cursor, std::vector<double>* rtt, Outcome* out) {
  std::vector<std::string> lines;
  for (const QueryLine& q : pool) lines.push_back(q.text + "\n");
  std::string reply;
  child->SetReadMode(Child::ReadMode::kSpin);
  const Budget budget(seconds);
  while (budget.Left()) {
    const std::size_t j = (*cursor)++ % pool.size();
    const double t0 = Now();
    const bool got = child->Write(lines[j]) && child->ReadLine(&reply);
    rtt->push_back(Now() - t0);
    ++out->attempted;
    if (!got) {
      out->Fail("REPL pipe closed in the closed loop");
      return;
    }
    if (reply != expected[j] && out->failed++ == 0) {
      out->problems.push_back("REPL replied " + reply + ", expected " +
                              expected[j]);
    }
  }
  child->SetReadMode(Child::ReadMode::kBlock);
}

}  // namespace

void RunReplWarm(const RunArgs& args, Outcome* out) {
  const std::uint64_t arena_seed = 1 + args.seed % 1000003;
  // The in-process reference: the same workload and QuerySpec the REPL
  // builds (sequential sampling, chunk 256), so answers must be equal.
  // The REPL's --seed seeds both the session (dataset generation) and
  // the arena.
  soldist::api::SessionOptions options;
  options.seed = arena_seed;
  options.threads = 1;
  soldist::api::Session session(options);
  soldist::serve::QueryService service(&session);
  const auto workload =
      soldist::api::WorkloadSpec::Dataset("Physicians")
          .Probability(soldist::ProbabilityModel::kIwc);
  soldist::serve::QuerySpec spec;
  spec.sample_number = kTau;
  spec.seed = arena_seed;
  auto view_or = service.View(workload, spec);
  if (!view_or.ok()) {
    out->Fail("reference view: " + view_or.status().ToString());
    return;
  }
  const soldist::serve::QueryView view = view_or.value();
  const VertexId n = view.num_vertices();
  RecordDataset(session, workload, out);

  const std::vector<QueryLine> pool = MakeQueryMix(args.seed, n, kPoolLines);
  std::vector<Parsed> parsed(pool.size());
  std::vector<std::string> expected(pool.size());
  soldist::serve::QueryScratch scratch;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    Status st = ParseLine(pool[i].text, n, &parsed[i]);
    if (!st.ok()) {
      out->Fail("mix line does not parse: " + pool[i].text);
      return;
    }
    expected[i] = Render(parsed[i], Kernel(view, parsed[i], &scratch));
  }

  // Set-up: process start to `ready`, several times; the median.
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) {
    Repl repl;
    const bool up = StartRepl(args, arena_seed, &repl);
    double rss = 0.0;
    repl.child->Write("quit\n");
    const int status = repl.child->Wait(&rss);
    out->Check(up && status == 0, "REPL start " + std::to_string(i));
    setups.push_back(repl.ready_s);
  }

  Repl repl;
  if (!StartRepl(args, arena_seed, &repl)) {
    out->Fail("REPL did not come up");
    return;
  }
  setups.push_back(repl.ready_s);
  Child* child = repl.child.get();

  if (!args.trace) {
    // Closed-loop and pipelined segments alternate over the whole run,
    // so both figures see the same stretch of machine time.
    std::vector<double> rtt, rates;
    rtt.reserve(1 << 21);
    std::size_t cursor = 0;
    const Budget budget(0.9 * args.seconds);
    while (budget.Left() || rates.size() < 4) {
      ClosedLoop(child, pool, expected, 0.3, &cursor, &rtt, out);
      Pipelined(child, pool, expected, 3, &rates, out);
      if (!out->gates_ok) break;
    }
    child->Write("quit\n");
    double rss = 0.0;
    out->Check(child->Wait(&rss) == 0, "REPL exit status");
    out->metrics.Set("setup_s", Median(setups), "s");
    out->metrics.Set("peak_rss_mb", rss, "MB");
    out->metrics.Set("throughput_per_s", Median(rates), "1/s");
    out->metrics.Set("latency_p50_ms", 1e3 * Percentile(&rtt, 0.50), "ms");
    out->metrics.Set("latency_p90_ms", 1e3 * Percentile(&rtt, 0.90), "ms");
    out->info["samples"] = "{\"closed_loop_lines\":" +
                           std::to_string(rtt.size()) +
                           ",\"pipelined_batches\":" +
                           std::to_string(rates.size()) +
                           ",\"batch_lines\":" + std::to_string(kBatchLines) +
                           "}";
    return;
  }

  // ---- traced run ----
  // (1) The pipelined REPL: per-line wall as the client sees it.
  std::vector<double> rates;
  const Budget piped(0.2 * args.seconds);
  while (piped.Left() || rates.size() < 4) {
    Pipelined(child, pool, expected, 1, &rates, out);
    if (!out->gates_ok) break;
  }
  child->Write("quit\n");
  double rss = 0.0;
  out->Check(child->Wait(&rss) == 0, "REPL exit status");
  const double repl_ns_per_line = 1e9 / Median(rates);

  // (2) The same lines replayed in-process, one thread, with a timer
  // between parse, kernel and reply. Timestamps are chained so the three
  // spans tile each line.
  const std::size_t replay_lines =
      std::max<std::size_t>(kPoolLines, static_cast<std::size_t>(
                                            0.25 * args.seconds * 2e5));
  std::vector<std::vector<double>> kernel_ns(QueryLine::kNumKinds);
  double parse_s = 0.0;
  double kernel_s = 0.0;
  double json_s = 0.0;
  std::uint64_t entries = 0;
  std::uint64_t bad = 0;
  Parsed p;
  std::string rendered;
  const double replay_start = Now();
  double t0 = replay_start;
  for (std::size_t i = 0; i < replay_lines; ++i) {
    const std::size_t j = i % pool.size();
    const Status st = ParseLine(pool[j].text, n, &p);
    const double t1 = Now();
    const double answer = Kernel(view, p, &scratch);
    const double t2 = Now();
    rendered = Render(p, answer);
    const double t3 = Now();
    parse_s += t1 - t0;
    kernel_s += t2 - t1;
    json_s += t3 - t2;
    kernel_ns[pool[j].kind].push_back(1e9 * (t2 - t1));
    if (!st.ok() || rendered != expected[j]) ++bad;
    t0 = t3;
  }
  const double traced_wall = Now() - replay_start;
  out->attempted += replay_lines;
  out->failed += bad;

  // Work count: inverted-list entries a query touches (every list of
  // S, plus v's for gain), from RrArena::InvertedAll lengths.
  for (std::size_t i = 0; i < replay_lines; ++i) {
    const Parsed& q = parsed[i % pool.size()];
    for (VertexId s : q.seeds) entries += view.arena().InvertedAll(s).size();
    if (q.gain) entries += view.arena().InvertedAll(q.vertex).size();
  }

  // (3) The same replay untimed: the tracing overhead.
  const double plain_start = Now();
  std::uint64_t plain_bad = 0;
  for (std::size_t i = 0; i < replay_lines; ++i) {
    const std::size_t j = i % pool.size();
    const Status st = ParseLine(pool[j].text, n, &p);
    rendered = Render(p, Kernel(view, p, &scratch));
    if (!st.ok() || rendered != expected[j]) ++plain_bad;
  }
  const double plain_wall = Now() - plain_start;
  out->attempted += replay_lines;
  out->failed += plain_bad;

  Reconciles(parse_s + kernel_s + json_s, traced_wall, out,
             "repl-warm replay");
  const double lines = static_cast<double>(replay_lines);
  for (int k = 0; k < QueryLine::kNumKinds; ++k) {
    out->metrics.Set(std::string("serve.query_ns.") +
                         KindName(static_cast<QueryLine::Kind>(k)),
                     Median(kernel_ns[k]), "ns");
  }
  out->metrics.Set("serve.list_entries_per_query",
                   static_cast<double>(entries) / lines, "count");
  out->metrics.Set("serve.ns_per_entry",
                   1e9 * kernel_s / static_cast<double>(entries), "ns");
  out->metrics.Set("util.parse_ns_per_line", 1e9 * parse_s / lines, "ns");
  out->metrics.Set("util.json_ns_per_line", 1e9 * json_s / lines, "ns");
  out->metrics.Set("tools.io_residual_us_per_line",
                   1e-3 * (repl_ns_per_line -
                           1e9 * (parse_s + kernel_s + json_s) / lines),
                   "us");
  out->metrics.Set("trace.wall_s", traced_wall, "s");
  out->metrics.Set("trace.overhead_pct",
                   100.0 * (traced_wall - plain_wall) / plain_wall, "%");
  // (4) The serve hit path under sharing, on four more resident arenas
  // of the same workload.
  soldist::serve::QuerySpec hit_base = spec;
  hit_base.seed = arena_seed + 1;
  MeasureHitPath(&service, workload, hit_base, pool, args.seed,
                 0.25 * args.seconds, out);
  out->info["derived"] =
      "\"tools.io_residual_us_per_line = pipelined REPL ns/line - "
      "(parse + kernel + json) ns/line\"";
}

}  // namespace perfbench
