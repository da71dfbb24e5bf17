#include "common.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>

extern char** environ;

namespace perfbench {

std::uint64_t Bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpu() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(q * static_cast<double>(values->size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return (*values)[std::min(index, values->size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t Mix::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const char* KindName(QueryLine::Kind kind) {
  switch (kind) {
    case QueryLine::kSpread1:
      return "spread1";
    case QueryLine::kSpread4:
      return "spread4";
    case QueryLine::kSpread8:
      return "spread8";
    case QueryLine::kGain:
      return "gain";
    default:
      return "?";
  }
}

namespace {

std::vector<soldist::VertexId> Distinct(Mix* mix, soldist::VertexId n,
                                        std::size_t count) {
  std::vector<soldist::VertexId> out;
  while (out.size() < count) {
    const auto v = static_cast<soldist::VertexId>(mix->Below(n));
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

std::string JoinIds(const std::vector<soldist::VertexId>& ids) {
  std::string out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ids[i]);
  }
  return out;
}

}  // namespace

std::vector<QueryLine> MakeQueryMix(std::uint64_t seed, soldist::VertexId n,
                                    std::size_t count) {
  Mix mix(seed);
  std::vector<QueryLine> lines(count);
  for (QueryLine& line : lines) {
    const std::uint64_t pick = mix.Below(100);
    if (pick < 30) {
      line.kind = QueryLine::kSpread1;
    } else if (pick < 55) {
      line.kind = QueryLine::kSpread4;
    } else if (pick < 75) {
      line.kind = QueryLine::kSpread8;
    } else {
      line.kind = QueryLine::kGain;
    }
    if (line.kind == QueryLine::kGain) {
      std::vector<soldist::VertexId> ids = Distinct(&mix, n, 4);
      line.vertex = ids[0];
      line.seeds.assign(ids.begin() + 1, ids.end());
      line.text = "gain " + std::to_string(line.vertex) + " " +
                  JoinIds(line.seeds);
    } else {
      const std::size_t size = line.kind == QueryLine::kSpread1   ? 1
                               : line.kind == QueryLine::kSpread4 ? 4
                                                                  : 8;
      line.seeds = Distinct(&mix, n, size);
      line.text = "spread " + JoinIds(line.seeds);
    }
  }
  return lines;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    if (!first) out += ",";
    first = false;
    char number[64];
    const double v = std::isfinite(entry.first) ? entry.first : 0.0;
    std::snprintf(number, sizeof(number), "%.17g", v);
    out += JsonString(name) + ":{\"value\":" + number +
           ",\"unit\":" + JsonString(entry.second) + "}";
  }
  return out + "}";
}

void Outcome::Fail(const std::string& what) {
  gates_ok = false;
  if (problems.size() < 20) problems.push_back(what);
}

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (problems.size() < 20) problems.push_back(what);
}

bool Reconciles(double layer_sum, double wall, Outcome* out,
                const std::string& what) {
  const double miss = wall > 0.0 ? std::fabs(wall - layer_sum) / wall : 1.0;
  out->unattributed = std::max(out->unattributed, miss);
  out->metrics.Set("trace.unattributed_pct", 100.0 * out->unattributed, "%");
  if (miss <= 0.05) return true;
  char text[200];
  std::snprintf(text, sizeof(text),
                "%s: layer times %.6f s miss the traced wall %.6f s by "
                "%.1f%% (> 5%%)",
                what.c_str(), layer_sum, wall, 100.0 * miss);
  out->Fail(text);
  out->reconciled = false;
  return false;
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Child::Child(const std::vector<std::string>& argv) {
  int to_child[2];
  int from_child[2];
  if (pipe2(to_child, O_CLOEXEC) != 0) return;
  if (pipe2(from_child, O_CLOEXEC) != 0) {
    close(to_child[0]);
    close(to_child[1]);
    return;
  }
  // Pipes big enough for a whole pipelined batch: the child never
  // blocks on a full pipe because the client is slow to wake.
  fcntl(to_child[1], F_SETPIPE_SZ, 1 << 20);
  fcntl(from_child[0], F_SETPIPE_SZ, 1 << 20);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
  posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  close(to_child[0]);
  close(from_child[1]);
  if (rc != 0) {
    close(to_child[1]);
    close(from_child[0]);
    return;
  }
  pid_ = pid;
  in_fd_ = to_child[1];
  out_fd_ = from_child[0];
}

Child::~Child() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    double ignored = 0.0;
    Wait(&ignored);
  }
  if (out_fd_ >= 0) close(out_fd_);
}

bool Child::Write(const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = write(in_fd_, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool Child::ReadLine(std::string* line) {
  for (;;) {
    const std::size_t nl = buffer_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buffer_, pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ > (1u << 16)) {
        buffer_.erase(0, pos_);
        pos_ = 0;
      }
      return true;
    }
    char chunk[1 << 16];
    const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno == EAGAIN && mode_ != ReadMode::kBlock) {
      if (mode_ == ReadMode::kPoll) {
        const timespec pause{0, 200000};
        nanosleep(&pause, nullptr);
      }
      continue;
    }
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void Child::SetReadMode(ReadMode mode) {
  const int flags = fcntl(out_fd_, F_GETFL);
  fcntl(out_fd_, F_SETFL,
        mode == ReadMode::kBlock ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK));
  mode_ = mode;
}

int Child::Wait(double* peak_rss_mb) {
  if (in_fd_ >= 0) {
    close(in_fd_);
    in_fd_ = -1;
  }
  if (pid_ <= 0) return -1;
  int status = 0;
  rusage usage{};
  while (wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return status;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
