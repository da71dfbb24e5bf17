// Shared pieces of the benchmark program: clocks, percentiles, the
// seeded query mix, the metric record every workload fills, and the
// child-process pipe used by the REPL workload.
//
// Every timer here lives in the benchmark's own code. Nothing under src/ is
// instrumented: a traced run times its own calls into each module's
// public functions.

#ifndef PERFBENCH_WORKLOADS_COMMON_H_
#define PERFBENCH_WORKLOADS_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/types.h"

namespace perfbench {

/// The bit pattern of a double: answers are compared bit for bit.
std::uint64_t Bits(double v);

/// Monotonic wall clock in seconds.
double Now();
/// CPU seconds consumed by the calling thread.
double ThreadCpu();

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; the
/// vector is sorted in place. 0 for an empty sample.
double Percentile(std::vector<double>* values, double q);
double Median(std::vector<double> values);

/// splitmix64: the benchmark's only random source, so a seed maps to the
/// same inputs on every machine and standard library.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, bound).
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }

 private:
  std::uint64_t state_;
};

/// One REPL query line of the point-query mix and its parsed form.
struct QueryLine {
  enum Kind { kSpread1, kSpread4, kSpread8, kGain, kNumKinds };
  Kind kind = kSpread1;
  std::string text;                       ///< "spread a,b" / "gain v a,b,c"
  soldist::VertexId vertex = 0;           ///< gain only
  std::vector<soldist::VertexId> seeds;   ///< spread seeds / gain base
};

const char* KindName(QueryLine::Kind kind);

/// `count` lines over vertices [0, n): spread with 1, 4 and 8 distinct
/// seeds and "gain v s1,s2,s3", in shares 30/25/20/25.
std::vector<QueryLine> MakeQueryMix(std::uint64_t seed, soldist::VertexId n,
                                    std::size_t count);

/// Name -> (value, unit), printed in name order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// What one workload run reports back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Extra gates beyond per-operation checks (reconciliation, counts
  /// that must repeat); false makes the run incorrect.
  bool gates_ok = true;
  /// False when a traced run's layers missed its wall (see Reconciles).
  bool reconciled = true;
  /// Largest share of a traced wall no layer accounts for, over every
  /// reconciliation of the run.
  double unattributed = 0.0;
  std::vector<std::string> problems;
  Metrics metrics;
  /// Free-form JSON members for the result file (datasets, digest...).
  std::map<std::string, std::string> info;

  void Fail(const std::string& what);
  /// Records a per-operation check.
  void Check(bool ok, const std::string& what);
};

/// Run parameters shared by all workloads.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string repl_bin;      ///< soldist_experiment binary
  std::string work_dir;      ///< work directory inside the checkout
  std::string expect_digest; ///< sweep digest to match ("" = none known)
  int threads = 4;           ///< sweep pool width: min(nproc, 4)
};

/// Layer times must add up to the traced wall within 5%: otherwise the
/// trace is missing a layer and the run must not be recorded.
bool Reconciles(double layer_sum, double wall, Outcome* out,
                const std::string& what);

/// Peak RSS of this process in MiB.
double SelfPeakRssMb();

/// The benchmark's wall-clock deadline helper.
struct Budget {
  double end;
  explicit Budget(double seconds) : end(Now() + seconds) {}
  bool Left() const { return Now() < end; }
};

/// A child process with its stdin and stdout on pipes.
class Child {
 public:
  explicit Child(const std::vector<std::string>& argv);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool ok() const { return pid_ > 0; }
  /// Writes all of `data`; false on a broken pipe.
  bool Write(const std::string& data);
  /// Reads one line (without the newline); false at end of output.
  bool ReadLine(std::string* line);

  /// How ReadLine waits for output. kBlock sleeps in read(). kSpin
  /// retries at once, so a latency client never waits to be woken up.
  /// kPoll retries every 200 us, so a bulk reader does not take a
  /// wake-up for every line the child writes.
  enum class ReadMode { kBlock, kSpin, kPoll };
  void SetReadMode(ReadMode mode);
  /// Closes stdin and waits; returns the exit status and peak RSS (MiB).
  int Wait(double* peak_rss_mb);

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
  std::size_t pos_ = 0;
  ReadMode mode_ = ReadMode::kBlock;
};

std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_COMMON_H_
