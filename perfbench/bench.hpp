// Shared plumbing of the two-clock benchmark (see README.md): run options,
// the host-clock span recorder, the metric sink and the failure ledger.
//
// Every layer is driven through its public functions and timed from the
// outside; nothing inside the simulator is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// How much work one run does.  `kFull` is what the benchmark measures;
/// `kTiny` is the self-test size (seconds of build-free checking).
enum class Size { kFull, kTiny };
inline const char* size_name(Size s) { return s == Size::kTiny ? "tiny" : "full"; }

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 17;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;   ///< global pool size, set explicitly
  Size size = Size::kFull;
  std::string record_path;  ///< machine-clock record of the suites
  std::string out_dir;      ///< where the traced run writes its spans
  std::string faulty_cfg = "configs/faulty.cfg";  ///< driver_faults policy
  /// Self-test hook: flip one bit of the driver's golden model after the
  /// first op, which the read-back check must report as a failure.
  bool corrupt_golden = false;
};

/// Set-up repetitions per run; setup_s is the median.
constexpr unsigned kSetupReps = 3;

/// Seeds whose machine clock machine_record.txt holds: the default seed and
/// one held out from tuning.
constexpr std::uint64_t kRecordedSeeds[] = {17, 4099};

/// One host-clock span around a public call of a layer.
struct Span {
  std::string layer;  ///< e.g. "sim.simd_pcm", "pinatubo.engine"
  double t0 = 0.0;    ///< seconds since the recorder's origin
  double t1 = 0.0;
};

/// Keeps spans in memory while the traced phase runs; written at the end.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  double now() const { return seconds_since(origin_); }
  void add(std::string layer, double t0, double t1) {
    if (enabled) spans_.push_back({std::move(layer), t0, t1});
  }
  /// Summed duration per layer.
  std::map<std::string, double> busy() const;
  /// Share of the windows [t0, t1) covered by no span.
  double uncovered_share(
      const std::vector<std::pair<double, double>>& windows) const;
  /// Writes the spans as Chrome trace-event JSON (one track per layer).
  void write_chrome_json(const std::string& path) const;

  bool enabled = false;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times `fn()` as one span of `layer` (when the recorder is enabled) and
/// returns its duration in seconds either way.
template <class Fn>
double timed(SpanRecorder& rec, const char* layer, Fn&& fn) {
  const double t0 = rec.now();
  fn();
  const double t1 = rec.now();
  rec.add(layer, t0, t1);
  return t1 - t0;
}

/// Named metric values with units, in insertion order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return list_; }

 private:
  std::vector<Metric> list_;
};

/// What a workload run hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log
  Metrics end_to_end;
  Metrics per_layer;
  std::vector<std::string> info;  ///< "# key value" lines for the log

  void fail(std::uint64_t n, const std::string& why) {
    failed += n;
    if (failures.size() < 20) failures.push_back(why);
  }
};

/// One machine-clock result: "<size> <seed> <item> <backend>" and its values
/// as text (hex floats, so equal text means bit-identical values).
struct RecordEntry {
  std::string key;
  std::string values;
  std::uint64_t ops = 1;  ///< ops a mismatch counts as failed
};

/// Machine-clock record (machine_record.txt): one entry per line, the key's
/// four words then the values; '#' starts a comment.  Maps key -> values.
using Record = std::map<std::string, std::string>;

std::string record_key(Size size, std::uint64_t seed, const std::string& item,
                       const std::string& backend);
/// Loads the record at `path` (empty path: no record).  Throws if a given
/// file cannot be read or holds no entries, so a lost record cannot turn
/// the check off.
Record load_record(const std::string& path);
/// Compares a run's results with the record for its size and seed; each
/// mismatch fails the entry's ops.  A recorded seed without entries fails.
void check_record(const Record& record, const RunOptions& opt,
                  const std::vector<RecordEntry>& got, Outcome& out);

/// Sets every per-layer metric to 0 with its unit: each workload prints
/// all of them, and a layer the workload does not drive reads 0.
void set_zero_layers(Metrics& m);

double median(std::vector<double> xs);
/// p-th percentile (0..100), nearest-rank on a sorted copy.
double percentile(std::vector<double> xs, double p);
/// Peak resident set of this process in MiB.
double peak_rss_mb();
/// splitmix64 step: derives independent sub-seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Workload entry points.
Outcome run_suite_cpu(const RunOptions& opt);
Outcome run_suite_pim(const RunOptions& opt);
Outcome run_driver(const RunOptions& opt, bool faults);
/// Machine-clock results of every workload, computed untimed, for the
/// record: the suites' (trace, backend) results and each driver round's.
std::vector<RecordEntry> suite_record(Size size, std::uint64_t seed);
std::vector<RecordEntry> driver_record(Size size, std::uint64_t seed,
                                       bool faults,
                                       const std::string& faulty_cfg);

}  // namespace perfbench
