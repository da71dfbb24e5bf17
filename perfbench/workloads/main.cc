// perfbench_workloads: runs one benchmark workload and prints one JSON
// line with its outcome (perfbench/run.py wraps it for the benchmark
// contract and writes the result file).
//
//   perfbench_workloads --workload repl-warm --seed 1 --seconds 10 --trace 0
//                    --repl-bin <soldist_experiment> --work-dir <dir>
//                    [--expect-digest <hex>]
//
// Exit status: 0 with a JSON line; 2 on a usage error; 3 when a traced
// run's layer times do not reconcile with its wall time (nothing is
// recorded).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void RecordDataset(soldist::api::Session& session,
                   const soldist::api::WorkloadSpec& workload, Outcome* out) {
  auto instance = session.ResolveWorkload(workload);
  if (!instance.ok()) return;
  out->info["dataset." + workload.Label()] =
      "{\"n\":" + std::to_string(instance.value().ig->num_vertices()) +
      ",\"m\":" + std::to_string(instance.value().ig->num_edges()) + "}";
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_workloads: %s\nusage: perfbench_workloads --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> --repl-bin "
               "<path> --work-dir <dir> [--expect-digest <hex>]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunArgs args;
  args.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--repl-bin") {
      args.repl_bin = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--expect-digest") {
      args.expect_digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0.0) return Usage("--seconds must be > 0");
  if (args.work_dir.empty()) return Usage("--work-dir is required");

  Outcome out;
  if (args.workload == "repl-warm") {
    if (args.repl_bin.empty()) return Usage("repl-warm needs --repl-bin");
    RunReplWarm(args, &out);
  } else if (args.workload == "serve-cold") {
    RunServeCold(args, &out);
  } else if (args.workload == "sweep-oneshot") {
    RunPaperSweep(args, soldist::Approach::kOneshot, &out);
  } else if (args.workload == "sweep-snapshot") {
    RunPaperSweep(args, soldist::Approach::kSnapshot, &out);
  } else if (args.workload == "sweep-ris") {
    RunPaperSweep(args, soldist::Approach::kRis, &out);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "perfbench_workloads: %s\n", p.c_str());
  }
  if (!out.reconciled) {
    std::fprintf(stderr,
                 "perfbench_workloads: traced run refused: see above\n");
    return 3;
  }
  if (out.attempted == 0) out.attempted = 1, out.failed = 1;

  std::string info = "{";
  info += "\"compiler\":" + JsonString(std::string("g++ ") + __VERSION__);
  info += ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE);
  info += ",\"hardware_concurrency\":" +
          std::to_string(std::thread::hardware_concurrency());
  for (const auto& [key, json] : out.info) {
    info.append(",").append(JsonString(key)).append(":").append(json);
  }
  info += ",\"problems\":[";
  for (std::size_t i = 0; i < out.problems.size(); ++i) {
    if (i > 0) info += ",";
    info += JsonString(out.problems[i]);
  }
  info += "]}";
  const bool correct = out.failed == 0 && out.gates_ok;
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s,"
      "\"info\":%s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), out.metrics.ToJson().c_str(),
      info.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
