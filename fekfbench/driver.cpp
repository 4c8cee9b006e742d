// fekfbench — the repository benchmark driver.
//
// Runs one workload (fekf_tta_cu, online_cu; see
// BENCHMARK.json and README.md in this directory) and prints every metric
// by name and unit, followed by one JSON result line:
//
//   {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
//
// Every layer is measured from outside: by timing calls into public
// functions (build_dataset, fit_stats, prepare, KalmanTrainer::train,
// publish_copy, BatchingEvaluator::submit) and by reading public counters
// (TrainObserver events, the trainer's phase timers, KernelCounter,
// Workspace::stats, EvalResult fields). Nothing inside src/ is changed.
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, the driver records
// benchmark-side spans (name, start, end, parent) in memory, writes them
// to .bench_out/trace-<workload>-seed<seed>.json at the end, and prints
// per-layer busy and self time.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "core/textio.hpp"
#include "data/dataset.hpp"
#include "optim/kalman.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/batching.hpp"
#include "serve/registry.hpp"
#include "tensor/kernel_counter.hpp"
#include "tensor/workspace.hpp"
#include "train/observer.hpp"
#include "train/trainer.hpp"

extern char** environ;

using namespace fekf;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_t0 = Clock::now();

f64 now_s() {
  return std::chrono::duration<f64>(Clock::now() - g_t0).count();
}

[[noreturn]] void refuse(const std::string& message) {
  std::fprintf(stderr, "fekfbench: %s\n", message.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

// Statistics of an empty sample are 0: the event did not occur in this
// run (for example, no epoch evaluation inside a short step budget).

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
f64 quantile(std::vector<f64> v, f64 q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const f64 pos = q * static_cast<f64>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<f64>(lo)) * (v[hi] - v[lo]);
}

f64 median(const std::vector<f64>& v) { return quantile(v, 0.5); }

f64 mean(const std::vector<f64>& v) {
  if (v.empty()) return 0.0;
  f64 s = 0.0;
  for (const f64 x : v) s += x;
  return s / static_cast<f64>(v.size());
}

/// The highest percentile (at most 0.99) with at least ten independent
/// samples beyond it, so a tail figure is never read off fewer than ten
/// observations. `group` samples always arrive and complete together (one
/// burst), so ten independent samples are ten groups.
f64 tail_quantile_level(std::size_t n, i64 group) {
  const f64 beyond = 10.0 * static_cast<f64>(group);
  if (static_cast<f64>(n) < 2.0 * beyond) return 0.5;
  return std::min(0.99, 1.0 - beyond / static_cast<f64>(n));
}

// ---------------------------------------------------------------------------
// Benchmark-side spans
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;  ///< "<layer>.<what>"
  f64 start = 0.0;
  f64 end = 0.0;
  i64 parent = -1;
  i64 thread = 0;
};

/// In-memory span store. Disabled (the untraced runs) it records nothing.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Complete span with explicit bounds and parent; returns its index.
  i64 add(const std::string& name, f64 start, f64 end, i64 parent) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end, parent, thread_id()});
    return static_cast<i64>(spans_.size()) - 1;
  }
  /// Open a span under the calling thread's innermost open span.
  i64 open(const std::string& name) {
    if (!enabled_) return -1;
    const i64 idx = add(name, now_s(), -1.0, current());
    stack().push_back(idx);
    return idx;
  }
  void close(i64 idx) {
    if (idx < 0) return;
    const f64 t = now_s();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      spans_[static_cast<std::size_t>(idx)].end = t;
    }
    stack().pop_back();
  }
  i64 current() const {
    const auto& s = stack();
    return s.empty() ? -1 : s.back();
  }
  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  static std::vector<i64>& stack() {
    thread_local std::vector<i64> s;
    return s;
  }
  static i64 thread_id() {
    static std::atomic<i64> next{0};
    thread_local i64 id = next++;
    return id;
  }
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

Tracer g_tracer;

class Span {
 public:
  explicit Span(const std::string& name) : idx_(g_tracer.open(name)) {}
  ~Span() { g_tracer.close(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  i64 index() const { return idx_; }

 private:
  i64 idx_;
};

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

struct LayerTime {
  i64 spans = 0;
  f64 busy = 0.0;  ///< summed duration of the layer's outermost spans
  f64 self = 0.0;  ///< summed duration minus time covered by child spans
};

std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans) {
  std::vector<f64> child_time(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    LayerTime& lt = out[layer_of(s.name)];
    const f64 dur = s.end - s.start;
    ++lt.spans;
    lt.self += dur - child_time[i];
    const bool nested_in_same_layer =
        s.parent >= 0 &&
        layer_of(spans[static_cast<std::size_t>(s.parent)].name) ==
            layer_of(s.name);
    if (!nested_in_same_layer) lt.busy += dur;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(f64 v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_trace(const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  const auto spans = g_tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << "{\"name\": \"" << json_escape(s.name) << "\", \"cat\": \""
        << layer_of(s.name) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << s.thread << ", \"ts\": " << num(s.start * 1e6)
        << ", \"dur\": " << num((s.end - s.start) * 1e6)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// Shared by every workload.
constexpr i64 kBatch = 8;
// Bench-default net (M=12, M^<=6, d=24; 3 313 parameters) and blocksize.
constexpr i64 kEmbed = 12, kAxis = 6, kFit = 24;
constexpr i64 kBlocksize = 2048;
// Pool width of the timed runs. Every parallel region waits for its
// slowest thread, so on a few shared vCPUs a wider pool times the host's
// scheduler: on a 4-vCPU host the small-net step rate moved by 60% between
// adjacent runs at width 4 and by up to 2x at width 2, against 12% at
// width 1. Kernels are bit-exact across widths, so the trajectory is the
// same at any width.
constexpr i64 kWidth = 1;
// The arena's width-dependent growth cannot show at width 1, so traced
// fekf_tta_cu runs train once more at this width to measure it.
constexpr i64 kArenaProbeWidth = 2;
// Serving: bursts of kServeBurst requests (MD walkers stepping in
// lockstep) at kServeRate requests/s; a request slower than
// kLatencyLimitS from when it was due counts as failed. One batch takes
// about 30 ms at width 1, so the batching worker stays under a third busy
// and a host stall drains within a few bursts instead of building a
// backlog.
constexpr i64 kServeBurst = 2;
constexpr f64 kServeRate = 20.0;
constexpr f64 kLatencyLimitS = 0.5;
// fekf_tta_cu serves its trained model for this long afterwards: 200
// bursts, so p90 has twenty bursts beyond it.
constexpr f64 kServeWindowS = 20.0;
// Set-ups before timing starts; setup_s is the median over them (and
// over the set-ups of repeated training runs).
constexpr i64 kSetupReps = 3;
// Traces and the cross-run checksum record, relative to the checkout root.
const char* const kOutDir = ".bench_out";
// online_cu publishes the trainer's weights every kPublishEvery steps.
constexpr i64 kPublishEvery = 2;

struct Workload {
  std::string name;
  i64 train_per_temp = 2;
  i64 test_per_temp = 4;
  f64 target = -1.0;     ///< fixed absolute train E+F RMSE; < 0: none
  i64 max_epochs = 1;    ///< epoch cap
  i64 step_budget = -1;  ///< fixed steps per train() call; < 0: none
  i64 eval_max_samples = -1;  ///< epoch-evaluation subset (-1: all)
  /// online_cu: rounds of data arrive while training and serving share
  /// the process.
  bool online = false;
};

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "fekf_tta_cu") {
    w.target = 5.0;
    w.max_epochs = 30;
  } else if (name == "online_cu") {
    w.online = true;
    w.train_per_temp = 8;  // one full batch per arriving round
    w.step_budget = 6;     // warm-retraining budget per round
    w.max_epochs = 1000;
    w.eval_max_samples = 16;
  } else {
    refuse("unknown workload '" + name + "' (fekf_tta_cu, online_cu)");
  }
  return w;
}

deepmd::ModelConfig model_config() {
  deepmd::ModelConfig cfg;
  cfg.embed_width = kEmbed;
  cfg.axis_neurons = kAxis;
  cfg.fitting_width = kFit;
  cfg.fusion = deepmd::FusionLevel::kFused;
  return cfg;
}

optim::KalmanConfig kalman_config() {
  optim::KalmanConfig cfg = optim::KalmanConfig::for_batch_size(kBatch);
  cfg.blocksize = kBlocksize;
  cfg.fused_p_update = true;
  cfg.cache_pg = true;
  cfg.fused_step = true;
  return cfg;
}

/// The serving side is sized for the walkers it serves: one batch per
/// burst, dispatched when the burst's last request arrives, with a
/// 20 ms gathering window as a fallback. The FEKF_SERVE_* knobs are
/// recorded but not applied, so every run serves with the same batching.
serve::BatchingConfig batching_config() {
  serve::BatchingConfig cfg;
  cfg.max_batch = kServeBurst;
  cfg.max_wait_s = 0.02;
  cfg.workers = 1;
  return cfg;
}

// ---------------------------------------------------------------------------
// Set-up: dataset, stats, prepare, trainer construction
// ---------------------------------------------------------------------------

/// Per-step observations gathered by StepProbe.
struct StepLog {
  std::vector<f64> step_s, forward_s, gradient_s, optimizer_s, eval_s;
  std::vector<f64> counted_step_s, uncounted_step_s;
  std::vector<f64> launches, arena_allocs, publish_s;
  i64 steps = 0;
  i64 rollbacks = 0;
};

struct Fixture {
  /// One dataset per arrival round (a single round for the training
  /// workloads).
  std::vector<data::Dataset> rounds;
  std::unique_ptr<deepmd::DeepmdModel> model;
  std::vector<std::vector<train::EnvPtr>> train_envs, test_envs;
  std::unique_ptr<train::KalmanTrainer> trainer;
  f64 setup_s = 0.0;
  f64 build_dataset_s = 0.0;
  f64 fit_stats_s = 0.0;
  std::vector<f64> prepare_s;  ///< per prepare() call
};

std::vector<train::EnvPtr> prepare_timed(const deepmd::DeepmdModel& model,
                                         const std::vector<md::Snapshot>& s,
                                         std::vector<f64>& seconds) {
  std::vector<train::EnvPtr> envs;
  envs.reserve(s.size());
  for (const md::Snapshot& snap : s) {
    Span span("deepmd.prepare");
    const f64 t = now_s();
    envs.push_back(model.prepare(snap));
    seconds.push_back(now_s() - t);
  }
  return envs;
}

std::unique_ptr<Fixture> set_up(const Workload& w,
                                train::TrainObserver* observer) {
  auto f = std::make_unique<Fixture>();
  Span setup_span("setup.run");
  const f64 t_setup = now_s();
  const data::SystemSpec& cu = data::get_system("Cu");
  // Training workloads sample every Table 3 temperature at once; the
  // online loop receives one temperature per round, in order.
  std::vector<std::vector<f64>> round_temps;
  if (w.online) {
    for (const f64 t : cu.temperatures) round_temps.push_back({t});
  } else {
    round_temps.push_back(cu.temperatures);
  }
  {
    const f64 t = now_s();
    for (const auto& temps : round_temps) {
      Span span("data.build_dataset");
      data::SystemSpec spec = cu;
      spec.temperatures = temps;
      data::DatasetConfig cfg;
      cfg.train_per_temperature = w.train_per_temp;
      cfg.test_per_temperature = w.test_per_temp;
      cfg.seed = 2024;
      f->rounds.push_back(data::build_dataset(spec, cfg));
    }
    f->build_dataset_s = now_s() - t;
  }
  f->model = std::make_unique<deepmd::DeepmdModel>(model_config(),
                                                   cu.num_types());
  {
    Span span("deepmd.fit_stats");
    const f64 t = now_s();
    // Stats come from the first arrival only: an online loop cannot refit
    // them without invalidating warm weights.
    f->model->fit_stats(f->rounds.front().train);
    f->fit_stats_s = now_s() - t;
  }
  for (const data::Dataset& ds : f->rounds) {
    f->train_envs.push_back(prepare_timed(*f->model, ds.train, f->prepare_s));
    f->test_envs.push_back(prepare_timed(*f->model, ds.test, f->prepare_s));
  }
  {
    Span span("optim.trainer_init");
    train::TrainOptions opts;
    opts.batch_size = kBatch;
    opts.max_epochs = w.max_epochs;
    opts.target_total_rmse = w.target;
    opts.eval_max_samples = w.eval_max_samples;
    opts.max_steps = w.step_budget;
    opts.observers.push_back(observer);
    f->trainer = std::make_unique<train::KalmanTrainer>(
        *f->model, kalman_config(), opts);
  }
  f->setup_s = now_s() - t_setup;
  return f;
}

// ---------------------------------------------------------------------------
// Training observer
// ---------------------------------------------------------------------------

/// Records per-step timing and counters from the TrainObserver events and
/// the trainer's public phase timers. In traced runs it counts kernel
/// launches on every third step only, so the counted and uncounted steps
/// of one run give the tracing overhead. (Every third, not every other:
/// a 10-snapshot epoch alternates full and short batches, and the
/// comparison needs full-batch steps on both sides.)
class StepProbe final : public train::TrainObserver {
 public:
  StepProbe(StepLog& log, bool traced, i64 batch)
      : log_(log), traced_(traced), batch_(batch) {}

  void begin_run(train::KalmanTrainer* trainer, i64 train_size,
                 i64 run_span, serve::ModelRegistry* registry,
                 const deepmd::DeepmdModel* model, i64 publish_every) {
    trainer_ = trainer;
    train_size_ = train_size;
    epoch_ = -1;
    run_span_ = run_span;
    registry_ = registry;
    model_ = model;
    publish_every_ = publish_every;
    fwd_ = trainer->forward_timer().total_seconds();
    grad_ = trainer->gradient_timer().total_seconds();
    opt_ = trainer->optimizer_timer().total_seconds();
    last_mark_ = now_s();
    last_launches_ = KernelCounter::total();
    last_allocs_ = Workspace::stats().allocs;
    counting_ = false;
    KernelCounter::enable(false);
    run_steps_ = 0;
  }
  void end_run() { KernelCounter::enable(false); }

  void on_step(const train::StepEvent& e) override {
    const f64 t = now_s();
    const f64 fwd = trainer_->forward_timer().total_seconds();
    const f64 grad = trainer_->gradient_timer().total_seconds();
    const f64 opt = trainer_->optimizer_timer().total_seconds();
    const f64 df = fwd - fwd_, dg = grad - grad_, dop = opt - opt_;
    fwd_ = fwd;
    grad_ = grad;
    opt_ = opt;
    ++log_.steps;
    ++run_steps_;
    // The sampler hands out full batches and one short one per epoch.
    if (e.epoch != epoch_) {
      epoch_ = e.epoch;
      epoch_pos_ = 0;
    }
    const i64 batch = std::min(batch_, train_size_ - epoch_pos_);
    epoch_pos_ += batch;
    if (e.rolled_back) ++log_.rollbacks;
    // Per-step distributions cover full-batch steps only, so steps of one
    // shape are compared. The first step of every run warms caches and the
    // arena; it counts in the totals but not in the distributions.
    if (run_steps_ > 1 && batch == batch_) {
      log_.step_s.push_back(e.seconds);
      log_.forward_s.push_back(df);
      log_.gradient_s.push_back(dg);
      log_.optimizer_s.push_back(dop);
      const i64 allocs = Workspace::stats().allocs;
      log_.arena_allocs.push_back(static_cast<f64>(allocs - last_allocs_));
      if (traced_) {
        (counting_ ? log_.counted_step_s : log_.uncounted_step_s)
            .push_back(e.seconds);
        if (counting_) {
          log_.launches.push_back(
              static_cast<f64>(KernelCounter::total() - last_launches_));
        }
      }
    }
    if (run_steps_ == 1) {
      arena_reserved_after_first_ = Workspace::stats().reserved_bytes;
    }
    if (g_tracer.enabled()) {
      const f64 s0 = t - e.seconds;
      const i64 step = g_tracer.add("train.step", s0, t, run_span_);
      g_tracer.add("train.forward", s0, s0 + df, step);
      g_tracer.add("train.gradient", s0 + df, s0 + df + dg, step);
      g_tracer.add("train.optimizer", s0 + df + dg, s0 + df + dg + dop,
                   step);
    }
    if (registry_ != nullptr && publish_every_ > 0 && !e.rolled_back &&
        e.step % publish_every_ == 0) {
      Span span("serve.publish");
      const f64 tp = now_s();
      registry_->publish_copy(*model_, e.step);
      log_.publish_s.push_back(now_s() - tp);
    }
    if (traced_) {
      counting_ = (e.step + 1) % 3 == 0;
      KernelCounter::enable(counting_);
    }
    last_launches_ = KernelCounter::total();
    last_allocs_ = Workspace::stats().allocs;
    last_mark_ = now_s();
  }

  void on_eval(const train::EpochRecord& record) override {
    const f64 t = now_s();
    log_.eval_s.push_back(t - last_mark_);
    g_tracer.add("train.eval", last_mark_, t, run_span_);
    epochs_.push_back(record);
    last_launches_ = KernelCounter::total();
    last_allocs_ = Workspace::stats().allocs;
    last_mark_ = t;
  }

  std::vector<train::EpochRecord> take_epochs() {
    return std::exchange(epochs_, {});
  }
  i64 arena_reserved_after_first() const {
    return arena_reserved_after_first_;
  }

 private:
  StepLog& log_;
  bool traced_;
  i64 batch_;
  train::KalmanTrainer* trainer_ = nullptr;
  serve::ModelRegistry* registry_ = nullptr;
  const deepmd::DeepmdModel* model_ = nullptr;
  i64 publish_every_ = 0;
  i64 run_span_ = -1;
  i64 train_size_ = 0;
  i64 epoch_ = -1;
  i64 epoch_pos_ = 0;
  i64 run_steps_ = 0;
  f64 fwd_ = 0.0, grad_ = 0.0, opt_ = 0.0;
  f64 last_mark_ = 0.0;
  i64 last_launches_ = 0;
  i64 last_allocs_ = 0;
  i64 arena_reserved_after_first_ = 0;
  bool counting_ = false;
  std::vector<train::EpochRecord> epochs_;
};

// ---------------------------------------------------------------------------
// Open-loop request generator
// ---------------------------------------------------------------------------

struct ServedSample {
  std::size_t snapshot = 0;
  serve::EvalResult result;
};

struct ServeLog {
  std::vector<f64> latency_s, submit_s, queue_s, eval_s, batch, staleness;
  f64 late_max_s = 0.0;
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<ServedSample> samples;  ///< kept for the exactness check
  bool finite = true;
};

/// One generator thread sends serve-latest, with-forces requests at a
/// fixed rate, in bursts of kServeBurst requests due at the same instant (MD
/// walkers stepping in lockstep). Each request is due on that schedule
/// however earlier ones fared (open loop). The seed picks which snapshot
/// each request carries and which results are kept for the exactness
/// check. A collector thread waits on the futures in submission order and
/// times every request from when it was due.
class LoadGenerator {
 public:
  /// Sends `max_requests` requests, or until stop() when it is negative.
  LoadGenerator(serve::BatchingEvaluator& evaluator,
                const serve::ModelRegistry& registry,
                const std::vector<md::Snapshot>& pool, f64 rate, u64 seed,
                i64 max_requests, ServeLog& log)
      : evaluator_(evaluator),
        registry_(registry),
        pool_(pool),
        rate_(rate),
        rng_(seed),
        max_requests_(max_requests),
        log_(log) {
    generator_ = std::thread([this] { generate(); });
    collector_ = std::thread([this] { collect(); });
  }
  ~LoadGenerator() { stop(); }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Stop sending (no-op if the request count is already reached), then
  /// wait for every outstanding request and join both threads.
  void stop() {
    stop_.store(true);
    if (generator_.joinable()) generator_.join();
    if (collector_.joinable()) collector_.join();
  }
  /// Block until the generator has sent its fixed request count.
  void wait_sent() {
    if (generator_.joinable()) generator_.join();
    stop();
  }

 private:
  struct Inflight {
    f64 due = 0.0;
    std::size_t snapshot = 0;
    bool keep = false;
    bool submitted = false;
    std::future<serve::EvalResult> future;
  };

  void generate() {
    const f64 t0 = now_s() + 0.01;
    for (i64 i = 0; max_requests_ < 0 || i < max_requests_; ++i) {
      const f64 due =
          t0 + static_cast<f64>((i / kServeBurst) * kServeBurst) / rate_;
      if (stop_.load()) break;
      std::this_thread::sleep_until(
          g_t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<f64>(due)));
      if (stop_.load()) break;
      Inflight req;
      req.due = due;
      req.snapshot = static_cast<std::size_t>(rng_.uniform_index(pool_.size()));
      req.keep = rng_.uniform() < 1.0 / 16.0;
      const f64 sent = now_s();
      log_.late_max_s = std::max(log_.late_max_s, sent - due);
      serve::EvalRequest request;
      request.snapshot = pool_[req.snapshot];
      request.with_forces = true;
      try {
        Span span("serve.submit");
        req.future = evaluator_.submit(std::move(request));
        req.submitted = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fekfbench: submit refused: %s\n", e.what());
      }
      log_.submit_s.push_back(now_s() - sent);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(req));
      }
      cv_.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sent_all_ = true;
    }
    cv_.notify_one();
  }

  void collect() {
    for (;;) {
      Inflight req;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return !queue_.empty() || sent_all_; });
        if (queue_.empty()) return;
        req = std::move(queue_.front());
        queue_.pop_front();
      }
      ++log_.attempted;
      if (!req.submitted) {
        ++log_.failed;
        continue;
      }
      serve::EvalResult res;
      try {
        res = req.future.get();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fekfbench: request failed: %s\n", e.what());
        ++log_.failed;
        continue;
      }
      const f64 done = now_s();
      const f64 latency = done - req.due;
      if (g_tracer.enabled()) {
        const i64 idx = g_tracer.add("serve.request", req.due, done, -1);
        const f64 e0 = done - res.eval_seconds;
        g_tracer.add("serve.queue_wait", e0 - res.queue_seconds, e0, idx);
        g_tracer.add("serve.batch_eval", e0, done, idx);
      }
      log_.latency_s.push_back(latency);
      log_.queue_s.push_back(res.queue_seconds);
      log_.eval_s.push_back(res.eval_seconds);
      log_.batch.push_back(static_cast<f64>(res.batch_size));
      log_.staleness.push_back(static_cast<f64>(
          registry_.latest_version() - res.model_version));
      if (latency > kLatencyLimitS) ++log_.failed;
      if (!std::isfinite(res.energy)) log_.finite = false;
      for (const md::Vec3& f : res.forces) {
        if (!std::isfinite(f.x) || !std::isfinite(f.y) ||
            !std::isfinite(f.z)) {
          log_.finite = false;
        }
      }
      if (req.keep) log_.samples.push_back({req.snapshot, std::move(res)});
    }
  }

  serve::BatchingEvaluator& evaluator_;
  const serve::ModelRegistry& registry_;
  const std::vector<md::Snapshot>& pool_;
  f64 rate_;
  Rng rng_;
  i64 max_requests_;
  ServeLog& log_;
  std::atomic<bool> stop_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Inflight> queue_;
  bool sent_all_ = false;
  // Declared last: the threads use every member above.
  std::thread generator_;
  std::thread collector_;
};

/// Serves a few untimed bursts first: the batching worker's first passes
/// pay one-time costs (fresh heap pages, lazy pool start-up) that would
/// otherwise back up the queue for the first second of every run.
void warm_up(serve::BatchingEvaluator& evaluator,
             const std::vector<md::Snapshot>& pool) {
  Span span("serve.warm_up");
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<serve::EvalResult>> futures;
    for (i64 i = 0; i < kServeBurst; ++i) {
      serve::EvalRequest request;
      request.snapshot = pool[static_cast<std::size_t>(i) % pool.size()];
      futures.push_back(evaluator.submit(std::move(request)));
    }
    for (auto& f : futures) f.get();
  }
}

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

struct Checks {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// FNV-1a over the per-epoch RMSE bits and the final weights: identical
/// across repeated runs of one workload at one width and ISA.
u64 trajectory_checksum(const std::vector<train::EpochRecord>& epochs,
                        const deepmd::DeepmdModel& model) {
  std::string bytes;
  auto put = [&](const void* p, std::size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  };
  for (const train::EpochRecord& r : epochs) {
    put(&r.epoch, sizeof(r.epoch));
    put(&r.train.energy_rmse, sizeof(f64));
    put(&r.train.force_rmse, sizeof(f64));
    put(&r.test.energy_rmse, sizeof(f64));
    put(&r.test.force_rmse, sizeof(f64));
  }
  for (const ag::Variable& p : model.parameters()) {
    put(p.value().data(), static_cast<std::size_t>(p.numel()) * sizeof(f32));
  }
  return fnv1a64(bytes);
}

bool weights_finite(const deepmd::DeepmdModel& model) {
  for (const ag::Variable& p : model.parameters()) {
    const f32* d = p.value().data();
    for (i64 i = 0; i < p.numel(); ++i) {
      if (!std::isfinite(d[i])) return false;
    }
  }
  return true;
}

/// Re-evaluates each kept served result with serve::evaluate_with on the
/// exact published version that served it; energies must match bit for
/// bit and forces numerically (the batched path may flip the sign of a
/// zero, see DeepmdModel::predict_batch).
void check_served(const ServeLog& log, const serve::ModelRegistry& registry,
                  const std::vector<md::Snapshot>& pool, Checks& checks) {
  Span span("check.served");
  checks.require(log.finite, "non-finite served energy or force");
  checks.require(!log.samples.empty(), "no served result was sampled");
  for (const ServedSample& s : log.samples) {
    const serve::ModelSnapshot* snap =
        registry.version(s.result.model_version);
    checks.require(snap != nullptr, "served version is not in the registry");
    if (snap == nullptr) continue;
    serve::EvalRequest request;
    request.snapshot = pool[s.snapshot];
    request.with_forces = true;
    const serve::EvalResult ref = serve::evaluate_with(*snap->model, request);
    const bool energy_same =
        std::memcmp(&ref.energy, &s.result.energy, sizeof(f64)) == 0;
    bool forces_same = ref.forces.size() == s.result.forces.size();
    for (std::size_t i = 0; forces_same && i < ref.forces.size(); ++i) {
      forces_same = ref.forces[i].x == s.result.forces[i].x &&
                    ref.forces[i].y == s.result.forces[i].y &&
                    ref.forces[i].z == s.result.forces[i].z;
    }
    checks.require(energy_same && forces_same,
                   "served result differs from evaluate_with on version " +
                       std::to_string(s.result.model_version));
  }
}

/// Cross-run determinism record: .bench_out/checksums.txt maps
/// "<workload> <source-hash> <width> <isa>" to the trajectory checksum of
/// the first run that wrote it; every later run must reproduce it.
void check_cross_run(const std::string& dir, const std::string& key,
                     u64 checksum, Checks& checks) {
  const std::string path = dir + "/checksums.txt";
  std::map<std::string, std::string> table;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      const auto bar = line.rfind(' ');
      if (bar != std::string::npos) {
        table[line.substr(0, bar)] = line.substr(bar + 1);
      }
    }
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(checksum));
  const auto it = table.find(key);
  if (it != table.end()) {
    checks.require(it->second == hex,
                   "trajectory checksum " + std::string(hex) +
                       " differs from the recorded " + it->second +
                       " for '" + key + "'");
    return;
  }
  table[key] = hex;
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  {
    std::ofstream out(tmp);
    for (const auto& [k, v] : table) out << k << ' ' << v << '\n';
  }
  std::filesystem::rename(tmp, path);
}

// ---------------------------------------------------------------------------
// Run environment
// ---------------------------------------------------------------------------

std::string isa_flags() {
  std::string out;
  auto add = [&](bool has, const char* name) {
    if (!has) return;
    if (!out.empty()) out += ',';
    out += name;
  };
  __builtin_cpu_init();
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
  return out.empty() ? "none" : out;
}

std::map<std::string, std::string> fekf_knobs() {
  std::map<std::string, std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("FEKF_", 0) != 0) continue;
    const auto eq = kv.find('=');
    out[kv.substr(0, eq)] = eq == std::string::npos ? "" : kv.substr(eq + 1);
  }
  return out;
}

f64 peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 0;
  f64 seconds = 0.0;
  bool trace = false;
  std::string source_hash = "unknown";
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) refuse("flag " + flag + " needs a value");
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--source-hash") a.source_hash = v;
      else if (flag == "--commit") a.commit = v;
      else refuse("unknown flag " + flag);
    } catch (const std::logic_error&) {
      refuse("bad value '" + v + "' for " + flag);
    }
  }
  if (a.workload.empty() || !(a.seconds > 0.0)) {
    refuse("usage: fekfbench --workload NAME --seed N --seconds S "
           "--trace 0|1");
  }
  return a;
}

struct Metric {
  std::string name;
  f64 value;
  std::string unit;
};

/// Everything one benchmark run observes, filled by the workload runners
/// and turned into metrics at the end.
struct RunLog {
  StepLog steps;
  ServeLog served;
  Checks checks;
  std::vector<f64> setup_s, build_s, fit_s, prep_s;
  std::vector<f64> snapshot_s;  ///< traced runs: one optimizer-state copy
  std::vector<f64> run_s;  ///< per training run (online_cu: per round)
  std::vector<u64> checksums;
  i64 train_ops = 0;
  i64 train_failed = 0;
  f64 test_rmse = std::nan("");
  i64 arena_growth = 0;
  i64 p_bytes = 0;

  /// Operations and failures (see README.md "Failure accounting").
  i64 attempted() const { return train_ops + served.attempted; }
  i64 failed() const { return train_failed + steps.rollbacks + served.failed; }

  void record_setup(const Fixture& f) {
    setup_s.push_back(f.setup_s);
    build_s.push_back(f.build_dataset_s);
    fit_s.push_back(f.fit_stats_s);
    prep_s.insert(prep_s.end(), f.prepare_s.begin(), f.prepare_s.end());
    p_bytes = f.trainer->kalman()->p_bytes();
    std::printf("set-up %zu: %.4f s\n", setup_s.size(), f.setup_s);
  }

  /// Times, from outside, the copy the trainer's divergence sentinel
  /// takes of the optimizer state after every accepted step
  /// (KalmanTrainer::snapshot_state): one KalmanOptimizer::state() copy,
  /// built and freed. Traced runs only: each copy allocates another P.
  void time_snapshot(const train::KalmanTrainer& trainer) {
    for (int r = 0; r < 3; ++r) {
      Span span("optim.snapshot");
      const f64 t = now_s();
      { const optim::KalmanState copy = trainer.kalman()->state(); }
      snapshot_s.push_back(now_s() - t);
    }
  }

  /// Checks one finished trajectory (online_cu: the whole loop) and
  /// records its checksum.
  void check_trajectory(const Fixture& f,
                        const std::vector<train::EpochRecord>& epochs,
                        bool hit_cap) {
    if (hit_cap) ++train_failed;
    for (const train::EpochRecord& r : epochs) {
      checks.require(std::isfinite(r.train.total()),
                     "non-finite train RMSE at epoch " +
                         std::to_string(r.epoch));
    }
    checks.require(weights_finite(*f.model), "non-finite weights");
    checksums.push_back(trajectory_checksum(epochs, *f.model));
    std::printf("trajectory %zu: %zu evaluations, last train RMSE %.4f, "
                "checksum %016llx%s\n",
                checksums.size(), epochs.size(),
                epochs.empty() ? std::nan("") : epochs.back().train.total(),
                static_cast<unsigned long long>(checksums.back()),
                hit_cap ? " (hit the epoch cap)" : "");
  }
};

/// Traced runs: one more cold training run at kArenaProbeWidth, untimed
/// and untraced, for tensor.arena_growth_bytes (ROADMAP item 2). Its
/// trajectory must match the timed runs' bit for bit.
void probe_arena(const Workload& w, RunLog& log) {
  const i64 width = num_threads();
  set_num_threads(kArenaProbeWidth);
  g_tracer.set_enabled(false);
  StepLog steps;
  StepProbe probe(steps, false, kBatch);
  const std::unique_ptr<Fixture> pf = set_up(w, &probe);
  probe.begin_run(pf->trainer.get(),
                  static_cast<i64>(pf->train_envs.front().size()), -1,
                  nullptr, nullptr, 0);
  const train::TrainResult result =
      pf->trainer->train(pf->train_envs.front(), {});
  probe.end_run();
  log.arena_growth = Workspace::stats().reserved_bytes -
                     probe.arena_reserved_after_first();
  std::printf("arena probe at width %lld: grew %lld bytes after the first "
              "step\n",
              static_cast<long long>(kArenaProbeWidth),
              static_cast<long long>(log.arena_growth));
  log.check_trajectory(*pf, probe.take_epochs(),
                       w.target > 0.0 && !result.converged);
  g_tracer.set_enabled(true);
  set_num_threads(width);
}

/// fekf_tta_cu: repeated cold training runs, each on a
/// fresh set-up, while the next one still fits in --seconds next to the
/// serving window; then the last trained model is served.
void run_training(const Workload& w, const Args& args, StepProbe& probe,
                  std::unique_ptr<Fixture>& fx, RunLog& log,
                  serve::ModelRegistry& registry,
                  const std::vector<md::Snapshot>& request_pool) {
  const f64 t_start = now_s();
  const f64 train_budget = args.seconds - kServeWindowS;
  for (i64 trial = 0;; ++trial) {
    if (trial > 0) {
      const f64 elapsed = now_s() - t_start;
      const f64 last = log.run_s.back() + log.setup_s.back();
      if (elapsed + last > train_budget) break;
      fx.reset();
      fx = set_up(w, &probe);
      log.record_setup(*fx);
    }
    Span run_span("train.run");
    probe.begin_run(fx->trainer.get(),
                    static_cast<i64>(fx->train_envs.front().size()),
                    run_span.index(), nullptr, nullptr, 0);
    const i64 steps_before = log.steps.steps;
    const train::TrainResult result =
        fx->trainer->train(fx->train_envs.front(), {});
    probe.end_run();
    log.train_ops += log.steps.steps - steps_before + 1;
    const bool hit_cap = w.target > 0.0 && !result.converged;
    log.run_s.push_back(w.target > 0.0 && result.converged
                            ? result.seconds_to_converge
                            : result.total_seconds);
    std::printf("training run %zu: %.4f s\n", log.run_s.size(),
                log.run_s.back());
    log.check_trajectory(*fx, probe.take_epochs(), hit_cap);
    if (args.trace) log.time_snapshot(*fx->trainer);
  }
  if (args.trace) probe_arena(w, log);
  {
    Span span("train.test_eval");
    log.test_rmse =
        train::evaluate(*fx->model, fx->test_envs.front()).total();
  }
  // Serve the trained model: the same open-loop path as online_cu, with
  // no trainer competing for the cores.
  {
    Span span("serve.publish");
    const f64 t = now_s();
    registry.publish_copy(*fx->model, log.steps.steps);
    log.steps.publish_s.push_back(now_s() - t);
  }
  serve::BatchingEvaluator evaluator(registry, batching_config());
  warm_up(evaluator, request_pool);
  const i64 requests = static_cast<i64>(kServeRate * kServeWindowS);
  LoadGenerator gen(evaluator, registry, request_pool, kServeRate,
                    args.seed, requests, log.served);
  gen.wait_sent();
}

/// online_cu: round 0 fits the initial model (cold, unserved). Then MD
/// walkers start sending requests against the latest published version,
/// and each later round's data arrives, grows the corpus, and is absorbed
/// by a warm retraining for a fixed step budget. Serving starts after
/// round 0 because walkers need a model to run with; it also keeps the
/// cold first step's one-time allocations out of the latency tail.
void run_online(const Args& args, StepProbe& probe, Fixture& fx, RunLog& log,
                serve::ModelRegistry& registry,
                const std::vector<md::Snapshot>& request_pool) {
  registry.publish_copy(*fx.model, 0);
  serve::BatchingEvaluator evaluator(registry, batching_config());
  std::unique_ptr<LoadGenerator> gen;
  std::vector<train::EnvPtr> corpus;
  std::vector<train::EpochRecord> rounds;
  for (std::size_t r = 0; r < fx.rounds.size(); ++r) {
    if (r == 1) {
      warm_up(evaluator, request_pool);
      gen = std::make_unique<LoadGenerator>(evaluator, registry,
                                            request_pool, kServeRate,
                                            args.seed, -1, log.served);
    }
    corpus.insert(corpus.end(), fx.train_envs[r].begin(),
                  fx.train_envs[r].end());
    Span run_span("train.run");
    probe.begin_run(fx.trainer.get(), static_cast<i64>(corpus.size()),
                    run_span.index(), &registry, fx.model.get(),
                    kPublishEvery);
    const i64 steps_before = log.steps.steps;
    // Each round is one train() call cut at the step budget; the trainer
    // keeps weights and covariance between rounds (warm).
    const train::TrainResult result = fx.trainer->train(corpus, {});
    probe.end_run();
    probe.take_epochs();
    log.train_ops += log.steps.steps - steps_before + 1;
    if (r > 0) log.run_s.push_back(result.total_seconds);
    train::EpochRecord rec;
    rec.epoch = static_cast<i64>(r);
    {
      Span span("train.round_eval");
      rec.train = train::evaluate(*fx.model, fx.test_envs[r]);
    }
    rounds.push_back(rec);
  }
  if (gen) gen->stop();
  log.check_trajectory(fx, rounds, false);
  if (args.trace) log.time_snapshot(*fx.trainer);
  std::vector<train::EnvPtr> all_test;
  for (const auto& envs : fx.test_envs) {
    all_test.insert(all_test.end(), envs.begin(), envs.end());
  }
  log.test_rmse = train::evaluate(*fx.model, all_test).total();
}

std::vector<Metric> end_to_end_metrics(const RunLog& log) {
  return {
      {"setup_s", median(log.setup_s), "s"},
      {"tta_s", median(log.run_s), "s"},
      {"train_samples_per_s",
       static_cast<f64>(kBatch) / median(log.steps.step_s), "1/s"},
      {"serve_p50_s", median(log.served.latency_s), "s"},
      {"test_rmse", log.test_rmse, "eV"},
      {"ok_frac",
       1.0 - static_cast<f64>(log.failed()) /
                 static_cast<f64>(log.attempted()),
       "frac"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

std::vector<Metric> per_layer_metrics(const RunLog& log,
                                      f64 serve_tail_level) {
  const StepLog& st = log.steps;
  const ServeLog& sv = log.served;
  const WorkspaceStats arena = Workspace::stats();
  const f64 phase_sum =
      mean(st.forward_s) + mean(st.gradient_s) + mean(st.optimizer_s);
  std::vector<Metric> m = {
      {"train.forward_s", mean(st.forward_s), "s"},
      {"train.gradient_s", mean(st.gradient_s), "s"},
      {"train.optimizer_s", mean(st.optimizer_s), "s"},
      {"train.other_s", mean(st.step_s) - phase_sum, "s"},
      {"train.phase_cover_frac", phase_sum / mean(st.step_s), "frac"},
      {"train.eval_s", median(st.eval_s), "s"},
      {"train.step_s_p50", median(st.step_s), "s"},
      {"train.step_s_p90", quantile(st.step_s, 0.9), "s"},
      {"train.rollbacks", static_cast<f64>(st.rollbacks), "count"},
      {"tensor.launches_per_step", median(st.launches), "count"},
      {"tensor.arena_peak_scope_bytes",
       static_cast<f64>(arena.peak_scope_bytes), "bytes"},
      {"tensor.arena_allocs_per_step", median(st.arena_allocs), "count"},
      {"tensor.arena_growth_bytes", static_cast<f64>(log.arena_growth),
       "bytes"},
      {"optim.p_bytes", static_cast<f64>(log.p_bytes), "bytes"},
      {"optim.snapshot_s", median(log.snapshot_s), "s"},
      {"data.build_dataset_s", median(log.build_s), "s"},
      {"deepmd.fit_stats_s", median(log.fit_s), "s"},
      {"deepmd.prepare_s", median(log.prep_s), "s"},
      {"serve.p90_s", quantile(sv.latency_s, 0.9), "s"},
      {"serve.tail_s", quantile(sv.latency_s, serve_tail_level), "s"},
      {"serve.submit_s", median(sv.submit_s), "s"},
      {"serve.queue_wait_s", median(sv.queue_s), "s"},
      {"serve.batch_eval_s", median(sv.eval_s), "s"},
      {"serve.batch_occupancy",
       mean(sv.batch) / static_cast<f64>(kServeBurst), "frac"},
      {"serve.publish_s", median(st.publish_s), "s"},
      {"serve.staleness_versions", mean(sv.staleness), "count"},
      {"gen.late_s_max", sv.late_max_s, "s"},
      {"obs.trace_overhead_frac",
       median(st.counted_step_s) / median(st.uncounted_step_s) - 1.0,
       "frac"},
  };
  const auto layers = layer_times(g_tracer.spans());
  std::printf("%-8s %8s %12s %12s\n", "layer", "spans", "busy_s", "self_s");
  for (const auto& [layer, lt] : layers) {
    std::printf("%-8s %8lld %12.4f %12.4f\n", layer.c_str(),
                static_cast<long long>(lt.spans), lt.busy, lt.self);
  }
  for (const char* layer : {"data", "deepmd", "optim", "train", "serve"}) {
    const auto it = layers.find(layer);
    const LayerTime lt = it == layers.end() ? LayerTime{} : it->second;
    m.push_back({std::string(layer) + ".busy_s", lt.busy, "s"});
    m.push_back({std::string(layer) + ".self_s", lt.self, "s"});
  }
  return m;
}

std::string environment_json(const Args& args, i64 width, i64 hw,
                             const std::string& isa, const RunLog& log,
                             f64 measured_s, f64 serve_tail_level) {
  std::ostringstream env;
  env << "{\"workload\": \"" << json_escape(args.workload)
      << "\", \"seed\": " << args.seed
      << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"width\": " << width
      << ", \"nproc\": " << hw << ", \"isa\": \"" << isa
      << "\", \"commit\": \"" << json_escape(args.commit)
      << "\", \"source_hash\": \"" << json_escape(args.source_hash)
      << "\", \"training_runs\": " << log.run_s.size()
      << ", \"measured_s\": " << num(measured_s)
      << ", \"serve_requests\": " << log.served.latency_s.size()
      << ", \"serve_tail_percentile\": " << num(100.0 * serve_tail_level)
      << ", \"fekf_knobs\": {";
  bool first = true;
  for (const auto& [k, v] : fekf_knobs()) {
    env << (first ? "" : ", ") << '"' << json_escape(k) << "\": \""
        << json_escape(v) << '"';
    first = false;
  }
  env << "}}";
  return env.str();
}

int run(const Args& args) {
  for (const char* knob : {"FEKF_TRACE", "FEKF_FLIGHT", "FEKF_TELEMETRY",
                           "FEKF_KERNEL_BACKEND"}) {
    const char* v = std::getenv(knob);
    if (v != nullptr && *v != '\0') {
      refuse(std::string(knob) +
             " is set: the benchmark measures the default build with "
             "in-program tracing off; unset it");
    }
  }
  const Workload w = make_workload(args.workload);
  const i64 hw = std::max<i64>(
      1, static_cast<i64>(std::thread::hardware_concurrency()));
  const i64 width = kWidth;
  set_num_threads(width);
  if (args.trace) g_tracer.set_enabled(true);
  // DESIGN.md §14: a live trainer mixed with serving runs arena-off.
  if (w.online) Workspace::set_enabled(false);
  std::filesystem::create_directories(kOutDir);

  RunLog log;
  StepProbe probe(log.steps, args.trace, kBatch);
  // Set up several times; the last fixture trains.
  std::unique_ptr<Fixture> fx;
  for (i64 r = 0; r < kSetupReps; ++r) {
    fx.reset();
    fx = set_up(w, &probe);
    log.record_setup(*fx);
  }
  std::vector<md::Snapshot> request_pool;
  for (const data::Dataset& ds : fx->rounds) {
    request_pool.insert(request_pool.end(), ds.test.begin(), ds.test.end());
  }

  const f64 t_measure = now_s();
  serve::ModelRegistry registry;
  if (w.online) {
    run_online(args, probe, *fx, log, registry, request_pool);
  } else {
    run_training(w, args, probe, fx, log, registry, request_pool);
  }
  const f64 measured_s = now_s() - t_measure;

  // Correctness.
  Checks& checks = log.checks;
  check_served(log.served, registry, request_pool, checks);
  checks.require(std::isfinite(log.test_rmse), "non-finite held-out RMSE");
  for (std::size_t i = 1; i < log.checksums.size(); ++i) {
    checks.require(log.checksums[i] == log.checksums[0],
                   "trajectory checksum differs between repeated runs");
  }
  const std::string isa = isa_flags();
  check_cross_run(kOutDir,
                  w.name + " " + args.source_hash + " w" +
                      std::to_string(width) + " " + isa,
                  log.checksums.front(), checks);

  // Metrics.
  const f64 tail_level =
      tail_quantile_level(log.served.latency_s.size(), kServeBurst);
  const std::vector<Metric> metrics =
      args.trace ? per_layer_metrics(log, tail_level)
                 : end_to_end_metrics(log);
  if (args.trace) {
    const std::string path = std::string(kOutDir) + "/trace-" + w.name +
                             "-seed" + std::to_string(args.seed) + ".json";
    write_trace(path);
    std::printf("trace written to %s\n", path.c_str());
  }
  std::printf("env %s\n", environment_json(args, width, hw, isa, log,
                                           measured_s, tail_level)
                              .c_str());
  std::printf("serve.tail_s is the p%.2f latency of %zu requests (the "
              "highest percentile with ten bursts beyond it, at most "
              "p99)\n",
              100.0 * tail_level, log.served.latency_s.size());
  for (const Metric& m : metrics) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    checks.require(std::isfinite(m.value), m.name + " is not finite");
  }
  for (const std::string& f : checks.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = checks.failures.empty();
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << log.attempted()
      << ", \"failed\": " << log.failed()
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fekfbench: %s\n", e.what());
    return 2;
  }
}
