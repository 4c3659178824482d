// falkon_perfbench — the repository benchmark.
//
// Drives the real loopback-TCP stack through its public API from one
// process: a Dispatcher behind a TcpDispatcherServer, TcpExecutorHarness
// executors running NoopEngine with adaptive bundles, and a streaming
// TcpDispatcherClient. Three workloads (see README.md):
//
//   burst    closed batches of 100k tasks, 5000-task submits, 16 executors;
//   paced    open loop, 32-task submits on a seeded Poisson schedule
//            averaging 50k tasks/s, 4 executors;
//   durable  burst with a group-commit ha::AsyncJournal on the dispatcher.
//
// --trace 0 prints the end-to-end metrics from kTimedReps repetitions, each
// with its own set-up: medians over the slices of every repetition (a
// closed batch, or kPacedSlice of schedule), set-up as the median over
// repetitions. --trace 1 prints the per-layer
// ledger: a timed pass, a traced pass (decorators from probes.h plus one
// obs::Obs shared by every component) and two bounding passes. Every pass
// checks that each submitted task id returns exactly once, successfully.
//
//   falkon_perfbench --workload burst --seed 1 --seconds 20 --trace 0
#include <sys/resource.h>

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/clock.h"
#include "core/service_tcp.h"
#include "ha/async_journal.h"
#include "ha/journal.h"
#include "obs/obs.h"
#include "probes.h"
#include "stats.h"

namespace {

using namespace falkon;
using perfbench::now_s;
using perfbench::thread_cpu_s;

struct Workload {
  const char* name;
  int executors;
  bool journal;
  bool paced;
};

constexpr Workload kWorkloads[] = {
    {"burst", 16, false, false},
    {"paced", 4, false, true},
    {"durable", 16, true, false},
};

constexpr std::size_t kBundle = 5000;         // tasks per closed-loop submit
constexpr std::size_t kBatch = 100000;        // tasks per closed batch
constexpr std::size_t kPacedSubmit = 32;      // tasks per paced submit
constexpr double kPacedRate = 50000.0;        // offered tasks/s (paced)
constexpr double kRateTolerance = 0.05;       // achieved may trail offered by this
constexpr std::size_t kWarmupTasks = kBatch;  // closed batch run during set-up
constexpr std::size_t kBoundTasks = 200000;   // tasks per bounding pass
constexpr std::uint32_t kMaxWait = 1u << 20;  // results per wait_results call
constexpr double kIdleTimeoutS = 20.0;        // no result this long fails a pass
constexpr double kPacedSlice = 0.5;           // seconds of schedule per paced slice
constexpr int kTimedReps = 5;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string journals{".bench_build/journals"};  // journal directories
};

struct Usage {
  double cpu_s{0.0};
  double ctx_switches{0.0};
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Everything one pass of the load generator observed.
struct Pass {
  std::uint64_t tasks{0};     // tasks submitted (and expected back)
  std::uint64_t failed{0};    // exactly-once violations
  double window_s{0.0};       // first submit .. last result
  Usage usage;                // process CPU and context switches in the window
  double loadgen_cpu_s{0.0};  // the load generator's submit/receive threads
  std::vector<double> latency_ms;       // due -> client receipt
  std::vector<double> dispatch_leg_ms;  // due -> engine start (traced)
  std::vector<double> return_leg_ms;    // engine end -> client receipt (traced)
  std::vector<double> late_ms;          // generator send - due (see run_closed)
  // Per-slice samples, so a pass yields a median rather than one mean:
  // each closed batch, or each kPacedSlice of the paced schedule.
  std::vector<double> slice_tasks_per_s;
  std::vector<double> slice_cpu_us;
  bool rate_ok{true};
  std::string error;

  [[nodiscard]] double tasks_per_s() const {
    return window_s > 0 ? static_cast<double>(tasks) / window_s : 0.0;
  }
};

/// Latency percentile `wanted` per slice (a closed batch, or kPacedSlice of
/// the paced schedule); the median over slices is what gets reported.
std::vector<double> slice_latency_tails(const Pass& pass, bool paced, double wanted) {
  const std::size_t chunk =
      paced ? static_cast<std::size_t>(kPacedRate * kPacedSlice) : kBatch;
  return perfbench::chunk_tails(pass.latency_ms, chunk, wanted);
}

/// A pass's throughput samples: one per closed batch, whose median shrugs
/// off a stalled batch; a paced pass's rate is set by its schedule, so
/// there the achieved rate of the whole pass.
std::vector<double> rate_samples(const Pass& pass, bool paced) {
  if (paced) return {pass.tasks_per_s()};
  return pass.slice_tasks_per_s;
}

// ---- the stack under test ---------------------------------------------------

/// Probes a traced stack installs; null members leave the seam bare.
struct Probes {
  perfbench::TaskStamps* stamps{nullptr};
  perfbench::ThreadClocks* exec_threads{nullptr};
};

class Stack {
 public:
  Stack(const Workload& workload, std::string journal_dir, obs::Obs* obs,
        Probes probes)
      : workload_(workload),
        journal_dir_(std::move(journal_dir)),
        obs_(obs),
        probes_(probes) {}

  ~Stack() {
    if (has_instance_) (void)client().destroy_instance(instance_);
    client_probe_.reset();
    client_.reset();
    for (auto& executor : executors_) executor->stop();
    executors_.clear();
    if (server_) server_->stop();
    if (dispatcher_) dispatcher_->shutdown();
    server_.reset();
    dispatcher_.reset();
    journal_probe_.reset();
    journal_.reset();
    if (!journal_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(journal_dir_, ec);
    }
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Journal, dispatcher, server and a streaming client instance; no
  /// executors yet.
  Status start() {
    if (workload_.journal) {
      std::error_code ec;
      std::filesystem::create_directories(journal_dir_, ec);
      ha::Journal::Options options;
      options.dir = journal_dir_;
      options.fsync = ha::FsyncPolicy::kGroupCommit;
      options.obs = obs_;
      auto opened = ha::Journal::open(options);
      if (!opened.ok()) return opened.error();
      journal_ = std::make_unique<ha::AsyncJournal>(std::move(opened.value()));
      if (traced()) {
        journal_probe_ = std::make_unique<perfbench::JournalProbe>(*journal_);
      }
    } else if (traced()) {
      journal_probe_ = std::make_unique<perfbench::JournalProbe>(null_journal_);
    }
    core::DispatcherConfig config;
    config.max_adaptive_bundle = 256;
    config.obs = obs_;
    config.journal = journal_.get();
    if (journal_probe_) config.journal = journal_probe_.get();
    dispatcher_ = std::make_unique<core::Dispatcher>(clock_, config);
    server_ = std::make_unique<core::TcpDispatcherServer>(*dispatcher_, obs_);
    if (auto status = server_->start(); !status.ok()) return status;
    auto client = core::TcpDispatcherClient::connect(
        "127.0.0.1", server_->rpc_port(), server_->push_port());
    if (!client.ok()) return client.error();
    client_ = std::move(client.value());
    if (traced()) client_probe_ = std::make_unique<perfbench::ClientProbe>(*client_);
    auto instance = this->client().create_instance(ClientId{1});
    if (!instance.ok()) return instance.error();
    instance_ = instance.value();
    has_instance_ = true;
    if (!client_->streaming(instance_)) {
      return make_error(ErrorCode::kUnavailable, "result stream not subscribed");
    }
    return ok_status();
  }

  /// Register the workload's executor fleet.
  Status attach_executors() {
    for (int e = 0; e < workload_.executors; ++e) {
      core::ExecutorOptions options;
      options.adaptive_bundle = true;
      options.obs = obs_;
      std::unique_ptr<core::TaskEngine> engine = std::make_unique<core::NoopEngine>();
      if (traced()) {
        engine = std::make_unique<perfbench::EngineProbe>(
            std::move(engine), *probes_.stamps, *probes_.exec_threads);
      }
      auto harness = std::make_unique<core::TcpExecutorHarness>(
          clock_, "127.0.0.1", server_->rpc_port(), server_->push_port(),
          std::move(engine), options);
      if (auto status = harness->start(); !status.ok()) return status;
      executors_.push_back(std::move(harness));
    }
    return ok_status();
  }

  [[nodiscard]] core::DispatcherClient& client() {
    if (client_probe_) return *client_probe_;
    return *client_;
  }
  [[nodiscard]] InstanceId instance() const { return instance_; }
  [[nodiscard]] core::Dispatcher& dispatcher() { return *dispatcher_; }
  [[nodiscard]] perfbench::ClientProbe* client_probe() { return client_probe_.get(); }
  [[nodiscard]] perfbench::JournalProbe* journal_probe() { return journal_probe_.get(); }

 private:
  [[nodiscard]] bool traced() const { return probes_.stamps != nullptr; }

  const Workload& workload_;
  std::string journal_dir_;
  obs::Obs* obs_;
  Probes probes_;
  RealClock clock_;
  perfbench::NullJournal null_journal_;
  std::unique_ptr<ha::AsyncJournal> journal_;
  std::unique_ptr<perfbench::JournalProbe> journal_probe_;
  std::unique_ptr<core::Dispatcher> dispatcher_;
  std::unique_ptr<core::TcpDispatcherServer> server_;
  std::vector<std::unique_ptr<core::TcpExecutorHarness>> executors_;
  std::unique_ptr<core::TcpDispatcherClient> client_;
  std::unique_ptr<perfbench::ClientProbe> client_probe_;
  InstanceId instance_{};
  bool has_instance_{false};
};

/// Cuts a pass into slices at mark() calls and books each slice's task
/// rate and process CPU per task.
class Slicer {
 public:
  explicit Slicer(Pass& pass) : pass_(pass) {}

  void mark(std::uint64_t tasks) {
    const double t = now_s();
    const double cpu = usage_now().cpu_s;
    if (tasks > tasks_) {
      const auto n = static_cast<double>(tasks - tasks_);
      pass_.slice_tasks_per_s.push_back(n / (t - t_));
      pass_.slice_cpu_us.push_back((cpu - cpu_) / n * 1e6);
    }
    tasks_ = tasks;
    t_ = t;
    cpu_ = cpu;
  }

 private:
  Pass& pass_;
  std::uint64_t tasks_{0};
  double t_{0.0};
  double cpu_{0.0};
};

// ---- load generation ----------------------------------------------------------

/// State shared by a pass's submitting and receiving threads. `mu` guards
/// the tally and the counters; the receiver holds it while it books one
/// wait_results batch, the submitter only at batch boundaries.
struct Exchange {
  Exchange(Stack& stack, perfbench::TaskStamps& stamps, std::uint64_t first_id,
           bool legs)
      : stack(stack), stamps(stamps), tally(first_id), legs(legs) {}

  Stack& stack;
  perfbench::TaskStamps& stamps;
  std::mutex mu;
  std::condition_variable cv;
  perfbench::Tally tally;
  std::uint64_t expected{0};
  std::uint64_t received{0};
  bool done{false};  // the submitter will announce no more tasks
  std::string error;
  double last_receipt{0.0};
  bool legs;

  void fail(const std::string& message) {
    std::lock_guard lock(mu);
    if (error.empty()) error = message;
    cv.notify_all();
  }
};

/// Submit tasks [id, id + n) as one submit call, all due at `due`.
Status submit_tasks(Exchange& ex, std::uint64_t id, std::size_t n, double due) {
  std::vector<TaskSpec> bundle;
  bundle.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ex.stamps.set_due(id + i, due);
    bundle.push_back(make_noop_task(TaskId{id + i}));
  }
  auto accepted = ex.stack.client().submit(ex.stack.instance(), std::move(bundle));
  if (!accepted.ok()) return accepted.error();
  if (accepted.value() != n) {
    return make_error(ErrorCode::kInternal, "submit accepted " +
                                                std::to_string(accepted.value()) +
                                                " of " + std::to_string(n));
  }
  return ok_status();
}

/// Receive until every announced task is back and the submitter is done,
/// or the pass fails. Books latency (and, traced, the two legs) for each
/// first sighting.
void receive_loop(Exchange& ex, Pass& pass) {
  const double cpu0 = thread_cpu_s();
  double idle_since = now_s();
  for (;;) {
    {
      std::unique_lock lock(ex.mu);
      ex.cv.wait(lock, [&] {
        return ex.received < ex.expected || ex.done || !ex.error.empty();
      });
      if (!ex.error.empty() || ex.received == ex.expected) break;
    }
    auto got = ex.stack.client().wait_results(ex.stack.instance(), kMaxWait, 0.5);
    const double t = now_s();
    if (!got.ok()) {
      ex.fail("wait_results: " + got.error().str());
      break;
    }
    if (got.value().empty()) {
      if (t - idle_since > kIdleTimeoutS) {
        ex.fail("no result for " + std::to_string(kIdleTimeoutS) + " s");
        break;
      }
      continue;
    }
    idle_since = t;
    std::lock_guard lock(ex.mu);
    for (const TaskResult& result : got.value()) {
      const std::uint64_t id = result.task_id.value;
      if (!ex.tally.record(id, result.success())) continue;
      ++ex.received;
      const double due = ex.stamps.due(id);
      pass.latency_ms.push_back((t - due) * 1e3);
      if (ex.legs) {
        pass.dispatch_leg_ms.push_back((ex.stamps.start(id) - due) * 1e3);
        pass.return_leg_ms.push_back((t - ex.stamps.end(id)) * 1e3);
      }
    }
    ex.last_receipt = t;
    if (ex.received == ex.expected) ex.cv.notify_all();
  }
  pass.loadgen_cpu_s += thread_cpu_s() - cpu0;
}

void finish_pass(Exchange& ex, Pass& pass, double t0, const Usage& u0) {
  const Usage u1 = usage_now();
  pass.tasks = ex.tally.expected();
  pass.failed = ex.tally.failed();
  pass.window_s = ex.last_receipt - t0;
  pass.usage = {u1.cpu_s - u0.cpu_s, u1.ctx_switches - u0.ctx_switches};
  pass.error = ex.error;
}

/// Closed loop: batches of `batch` tasks in kBundle-task submits; each batch
/// starts once every result of the previous one is back. Runs at least one
/// batch and stops at the first batch boundary past `window_s`. A batch is
/// due when the last result of the one before it arrives, so the
/// generator's lateness is the closed loop's hand-off delay.
Pass run_closed(Stack& stack, perfbench::TaskStamps& stamps,
                std::uint64_t& next_id, std::size_t batch, double window_s,
                bool legs) {
  Pass pass;
  Exchange ex(stack, stamps, next_id, legs);
  const Usage u0 = usage_now();
  const double t0 = now_s();
  double submit_cpu = 0.0;
  Slicer slicer(pass);
  std::thread submitter([&] {
    const double cpu0 = thread_cpu_s();
    for (bool first = true;; first = false) {
      {
        std::unique_lock lock(ex.mu);
        ex.cv.wait(lock, [&] { return ex.received == ex.expected || !ex.error.empty(); });
        slicer.mark(ex.received);
        if (!first) pass.late_ms.push_back((now_s() - ex.last_receipt) * 1e3);
        if (!ex.error.empty() || (!first && now_s() - t0 >= window_s)) {
          ex.done = true;
          ex.cv.notify_all();
          break;
        }
        ex.tally.extend(batch);  // the receiver is parked: nothing outstanding
        ex.expected += batch;
        ex.cv.notify_all();
      }
      for (std::size_t at = 0; at < batch; at += kBundle) {
        const std::size_t n = std::min(kBundle, batch - at);
        if (auto status = submit_tasks(ex, next_id, n, now_s()); !status.ok()) {
          ex.fail("submit: " + status.error().str());
          break;
        }
        next_id += n;
      }
    }
    submit_cpu = thread_cpu_s() - cpu0;
  });
  receive_loop(ex, pass);
  submitter.join();
  pass.loadgen_cpu_s += submit_cpu;
  finish_pass(ex, pass, t0, u0);
  return pass;
}

/// Open loop: one 32-task submit at each scheduled time, regardless of
/// progress; latency counts from the scheduled (due) time.
Pass run_paced(Stack& stack, perfbench::TaskStamps& stamps,
               std::uint64_t& next_id, const std::vector<double>& schedule,
               double span_s, bool legs) {
  Pass pass;
  Exchange ex(stack, stamps, next_id, legs);
  const std::size_t total = schedule.size() * kPacedSubmit;
  ex.tally.extend(total);
  ex.expected = total;
  ex.done = true;  // every task is announced up front
  const std::uint64_t first_id = next_id;
  next_id += total;
  const Usage u0 = usage_now();
  const double t0 = now_s() + 0.002;
  double submit_cpu = 0.0;
  Slicer slicer(pass);
  std::thread generator([&] {
    const double cpu0 = thread_cpu_s();
    pass.late_ms.reserve(schedule.size());
    double slice_end = 0.0;
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      if (schedule[k] >= slice_end) {
        slicer.mark(k * kPacedSubmit);
        slice_end += kPacedSlice;
      }
      const double due = t0 + schedule[k];
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(due))));
      pass.late_ms.push_back((now_s() - due) * 1e3);
      {
        std::lock_guard lock(ex.mu);
        if (!ex.error.empty()) break;
      }
      const std::uint64_t id = first_id + k * kPacedSubmit;
      if (auto status = submit_tasks(ex, id, kPacedSubmit, due); !status.ok()) {
        ex.fail("submit: " + status.error().str());
        break;
      }
    }
    slicer.mark(total);
    submit_cpu = thread_cpu_s() - cpu0;
  });
  receive_loop(ex, pass);
  generator.join();
  pass.loadgen_cpu_s += submit_cpu;
  finish_pass(ex, pass, t0, u0);
  const double offered = static_cast<double>(total) / span_s;
  pass.rate_ok = pass.tasks_per_s() >= offered * (1.0 - kRateTolerance);
  return pass;
}


// ---- repetitions --------------------------------------------------------------

/// The exactly-once verdict over every pass of the process.
struct Verdict {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> problems;

  void add(const Pass& pass, const std::string& what) {
    attempted += pass.tasks;
    failed += pass.failed;
    if (!pass.error.empty()) problems.push_back(what + ": " + pass.error);
    if (pass.failed != 0) {
      problems.push_back(what + ": " + std::to_string(pass.failed) +
                         " tasks not returned exactly once with exit 0");
    }
    if (!pass.rate_ok) {
      std::fprintf(stderr,
                   "perfbench: %s: achieved rate fell below the offered rate;"
                   " its latency is left out of latency_p50_ms\n",
                   what.c_str());
    }
  }
};

/// State of one benchmark process: the id sequence, schedule seeds,
/// journal directories and the verdict run across passes.
struct Context {
  Context(const Args& args, const Workload& workload)
      : args(args),
        workload(workload),
        next_id(perfbench::first_task_id(args.seed)),
        seeds(args.seed) {}

  std::string journal_dir() {
    return args.journals + "/journal-" + std::to_string(::getpid()) + "-" +
           std::to_string(journals++);
  }

  const Args& args;
  const Workload& workload;
  std::uint64_t next_id;
  Rng seeds;
  int journals{0};
  Verdict verdict;
};

/// Polls Dispatcher::status() for the deepest wait queue seen.
class QueueSampler {
 public:
  explicit QueueSampler(core::Dispatcher& dispatcher)
      : dispatcher_(dispatcher), thread_([this] { loop(); }) {}
  ~QueueSampler() { stop(); }

  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;

  void stop() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] double max_queued() const { return max_queued_; }
  [[nodiscard]] double cpu_s() const { return cpu_s_; }

 private:
  void loop() {
    const double cpu0 = thread_cpu_s();
    std::unique_lock lock(mu_);
    while (!stop_) {
      lock.unlock();
      const auto status = dispatcher_.status();
      max_queued_ = std::max(max_queued_, static_cast<double>(status.queued));
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(2), [&] { return stop_; });
    }
    cpu_s_ = thread_cpu_s() - cpu0;
  }

  core::Dispatcher& dispatcher_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_{false};
  double max_queued_{0.0};
  double cpu_s_{0.0};
  std::thread thread_;  // last: starts after the members it uses
};

double counter_total(const obs::Snapshot& snap, const std::string& name) {
  double total = 0.0;
  for (const auto& [series, value] : snap.counters) {
    if (series == name || series.rfind(name + "{", 0) == 0) {
      total += static_cast<double>(value);
    }
  }
  return total;
}

struct HistTotal {
  double count{0.0};
  double sum{0.0};
};

HistTotal histogram_total(const obs::Snapshot& snap, const std::string& name) {
  HistTotal total;
  for (const auto& view : snap.histograms) {
    if (view.name == name || view.name.rfind(name + "{", 0) == 0) {
      total.count += static_cast<double>(view.count);
      total.sum += view.sum;
    }
  }
  return total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Rep {
  Pass pass;
  double setup_s{0.0};
  std::map<std::string, double> ledger;  // traced repetitions only
};

/// One repetition: set up a fresh stack (timed, including warm-up), run one
/// measured pass of `window_s`, tear down. A traced repetition installs the
/// probes and one obs::Obs and fills the per-layer ledger.
Rep run_rep(Context& ctx, double window_s, bool traced) {
  const Workload& w = ctx.workload;
  Rep rep;
  perfbench::TaskStamps stamps(ctx.next_id, kBatch);
  perfbench::ThreadClocks exec_threads;
  std::unique_ptr<obs::Obs> obs;
  Probes probes;
  if (traced) {
    obs = std::make_unique<obs::Obs>();
    probes = {&stamps, &exec_threads};
  }
  const double setup_start = now_s();
  Stack stack(w, w.journal ? ctx.journal_dir() : std::string(), obs.get(), probes);
  Status status = stack.start();
  if (status.ok()) status = stack.attach_executors();
  if (!status.ok()) {
    rep.pass.error = "set-up: " + status.error().str();
    ctx.verdict.add(rep.pass, w.name);
    return rep;
  }
  const Pass warmup = run_closed(stack, stamps, ctx.next_id, kWarmupTasks, 0.0, false);
  ctx.verdict.add(warmup, "warm-up");
  if (!warmup.error.empty()) {
    rep.pass.error = "warm-up: " + warmup.error;
    return rep;
  }
  rep.setup_s = now_s() - setup_start;

  obs::Snapshot before;
  double exec_cpu0 = 0.0;
  perfbench::JournalProbe::Hooks hooks0;
  std::size_t barriers0 = 0;
  std::unique_ptr<QueueSampler> sampler;
  if (traced) {
    stack.client_probe()->clear();
    before = obs->registry().snapshot();
    exec_cpu0 = exec_threads.total_s();
    if (auto* journal = stack.journal_probe()) {
      hooks0 = journal->hooks();
      barriers0 = journal->barriers();
    }
    sampler = std::make_unique<QueueSampler>(stack.dispatcher());
  }

  if (w.paced) {
    const auto submits = static_cast<std::size_t>(
        std::llround(kPacedRate * window_s / static_cast<double>(kPacedSubmit)));
    const auto schedule =
        perfbench::poisson_schedule(ctx.seeds.next_u64(), submits, window_s);
    rep.pass = run_paced(stack, stamps, ctx.next_id, schedule, window_s, traced);
  } else {
    rep.pass = run_closed(stack, stamps, ctx.next_id, kBatch, window_s, traced);
  }
  ctx.verdict.add(rep.pass, traced ? "traced pass" : "timed pass");
  if (!traced) return rep;

  sampler->stop();
  const obs::Snapshot after = obs->registry().snapshot();
  const double exec_cpu = exec_threads.total_s() - exec_cpu0;
  const Pass& pass = rep.pass;
  const auto tasks = static_cast<double>(pass.tasks);
  auto delta = [&](const char* name) {
    return counter_total(after, name) - counter_total(before, name);
  };
  auto mean_delta = [&](const char* name) {
    const HistTotal a = histogram_total(after, name);
    const HistTotal b = histogram_total(before, name);
    return ratio(a.sum - b.sum, a.count - b.count);
  };
  auto per_task = [&](double value) { return ratio(value, tasks); };
  auto& l = rep.ledger;
  const auto submit_ms = stack.client_probe()->submit_ms();
  const double loadgen_cpu = pass.loadgen_cpu_s + sampler->cpu_s();
  l["client.submit_ms_p50"] = perfbench::median(submit_ms);
  l["client.submit_ms_p99"] = perfbench::tail(submit_ms, 0.99);
  l["client.results_per_wait"] = stack.client_probe()->results_per_wait();
  l["client.cpu_us_per_task"] = per_task(loadgen_cpu) * 1e6;
  l["executor.dispatch_leg_ms_p50"] = perfbench::median(pass.dispatch_leg_ms);
  l["executor.dispatch_leg_ms_p99"] = perfbench::tail(pass.dispatch_leg_ms, 0.99);
  l["executor.return_leg_ms_p50"] = perfbench::median(pass.return_leg_ms);
  l["executor.return_leg_ms_p99"] = perfbench::tail(pass.return_leg_ms, 0.99);
  l["executor.cpu_us_per_task"] = per_task(exec_cpu) * 1e6;
  l["executor.empty_poll_frac"] = ratio(delta("falkon.executor.empty_polls"),
                                        delta("falkon.executor.notifications"));
  l["dispatcher.bundle_size_mean"] = mean_delta("falkon.dispatcher.bundle_size");
  l["dispatcher.route_batch_size_mean"] =
      mean_delta("falkon.dispatcher.route_batch_size");
  // The dispatcher records an entry-lock wait only when the lock was
  // contended, so count the waits: their summed time would read a constant
  // zero wherever the locks never contend.
  l["dispatcher.lock_waits_per_task"] =
      per_task(histogram_total(after, "falkon.dispatcher.lock_wait_s").count -
               histogram_total(before, "falkon.dispatcher.lock_wait_s").count);
  l["dispatcher.notifications_per_task"] =
      per_task(delta("falkon.dispatcher.notifications"));
  l["dispatcher.queue_depth_max"] = sampler->max_queued();
  l["net.rpc_requests_per_task"] = per_task(delta("falkon.net.rpc.requests"));
  l["net.frames_coalesced_per_task"] = per_task(delta("falkon.net.frames_coalesced"));
  l["net.reactor_wakeups_per_task"] = per_task(delta("falkon.net.reactor.wakeups"));
  l["net.push_per_task"] = per_task(delta("falkon.net.push.notifications"));
  const double hits = delta("falkon.net.pool.hits");
  l["net.pool_hit_frac"] = ratio(hits, hits + delta("falkon.net.pool.misses"));
  l["journal.records_per_task"] = per_task(delta("falkon.ha.journal.records"));
  l["journal.fsyncs_per_s"] = ratio(delta("falkon.ha.wal.fsyncs"), pass.window_s);
  l["journal.hook_ns_per_record"] = 0.0;
  l["journal.barrier_ms_p50"] = 0.0;
  l["journal.barrier_ms_p99"] = 0.0;
  if (auto* journal = stack.journal_probe()) {
    const auto hooks = journal->hooks();
    l["journal.hook_ns_per_record"] =
        ratio(static_cast<double>(hooks.ns - hooks0.ns),
              static_cast<double>(hooks.calls - hooks0.calls));
    const auto barrier_ms = journal->barrier_ms(barriers0);
    l["journal.barrier_ms_p50"] = perfbench::median(barrier_ms);
    l["journal.barrier_ms_p99"] = perfbench::tail(barrier_ms, 0.99);
  }
  l["process.ctx_switches_per_task"] = per_task(pass.usage.ctx_switches);
  l["process.other_cpu_us_per_task"] =
      per_task(pass.usage.cpu_s - loadgen_cpu - exec_cpu) * 1e6;
  return rep;
}

/// Bounding pass: submit into a dispatcher with no executors, so only the
/// client, wire, dispatcher ingest (and journal) are priced.
double bound_submit_only(Context& ctx) {
  perfbench::TaskStamps stamps(ctx.next_id, kBatch);
  Stack stack(ctx.workload, ctx.workload.journal ? ctx.journal_dir() : std::string(),
              nullptr, {});
  if (auto status = stack.start(); !status.ok()) {
    ctx.verdict.problems.push_back("submit-only bound: " + status.error().str());
    return 0.0;
  }
  Exchange ex(stack, stamps, ctx.next_id, false);
  const std::size_t size = ctx.workload.paced ? kPacedSubmit : kBundle;
  const double t0 = now_s();
  for (std::size_t at = 0; at < kBoundTasks; at += size) {
    if (auto status = submit_tasks(ex, ctx.next_id, size, now_s()); !status.ok()) {
      ctx.verdict.problems.push_back("submit-only bound: " + status.error().str());
      return 0.0;
    }
    ctx.next_id += size;
  }
  return static_cast<double>(kBoundTasks) / (now_s() - t0);
}

/// Bounding pass: preload the queue, then attach the fleet and time the
/// drain plus result return, so the submit side is out of the picture.
double bound_drain_only(Context& ctx) {
  perfbench::TaskStamps stamps(ctx.next_id, kBatch);
  Stack stack(ctx.workload, ctx.workload.journal ? ctx.journal_dir() : std::string(),
              nullptr, {});
  if (auto status = stack.start(); !status.ok()) {
    ctx.verdict.problems.push_back("drain-only bound: " + status.error().str());
    return 0.0;
  }
  Exchange ex(stack, stamps, ctx.next_id, false);
  ex.tally.extend(kBoundTasks);
  ex.expected = kBoundTasks;
  ex.done = true;
  for (std::size_t at = 0; at < kBoundTasks; at += kBundle) {
    if (auto status = submit_tasks(ex, ctx.next_id, kBundle, now_s()); !status.ok()) {
      ctx.verdict.problems.push_back("drain-only bound: " + status.error().str());
      return 0.0;
    }
    ctx.next_id += kBundle;
  }
  Pass pass;
  const Usage u0 = usage_now();
  const double t0 = now_s();
  if (auto status = stack.attach_executors(); !status.ok()) {
    ctx.verdict.problems.push_back("drain-only bound: " + status.error().str());
    return 0.0;
  }
  receive_loop(ex, pass);
  finish_pass(ex, pass, t0, u0);
  ctx.verdict.add(pass, "drain-only bound");
  return pass.tasks_per_s();
}

// ---- reporting ----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"tasks_per_s", "tasks/s"},  {"cpu_us_per_task", "us"},
    {"latency_p50_ms", "ms"},    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"client.submit_ms_p50", "ms"},
    {"client.submit_ms_p99", "ms"},
    {"client.results_per_wait", "count"},
    {"client.cpu_us_per_task", "us"},
    {"executor.dispatch_leg_ms_p50", "ms"},
    {"executor.dispatch_leg_ms_p99", "ms"},
    {"executor.return_leg_ms_p50", "ms"},
    {"executor.return_leg_ms_p99", "ms"},
    {"executor.cpu_us_per_task", "us"},
    {"executor.empty_poll_frac", "ratio"},
    {"dispatcher.bundle_size_mean", "count"},
    {"dispatcher.route_batch_size_mean", "count"},
    {"dispatcher.lock_waits_per_task", "count"},
    {"dispatcher.notifications_per_task", "count"},
    {"dispatcher.queue_depth_max", "count"},
    {"net.rpc_requests_per_task", "count"},
    {"net.frames_coalesced_per_task", "count"},
    {"net.reactor_wakeups_per_task", "count"},
    {"net.push_per_task", "count"},
    {"net.pool_hit_frac", "ratio"},
    {"journal.records_per_task", "count"},
    {"journal.hook_ns_per_record", "ns"},
    {"journal.barrier_ms_p50", "ms"},
    {"journal.barrier_ms_p99", "ms"},
    {"journal.fsyncs_per_s", "1/s"},
    {"process.ctx_switches_per_task", "count"},
    {"process.other_cpu_us_per_task", "us"},
    {"trace.overhead_frac", "ratio"},
    {"bound.submit_only_tasks_per_s", "tasks/s"},
    {"bound.drain_only_tasks_per_s", "tasks/s"},
    {"paced.generator_late_ms_p99", "ms"},
    {"latency.p99_ms", "ms"},
    {"latency.samples", "count"},
};

template <std::size_t N>
void print_result(const Verdict& verdict, const MetricDef (&defs)[N],
                  const std::map<std::string, double>& values) {
  std::vector<std::string> problems = verdict.problems;
  std::string metrics;
  for (const auto& def : defs) {
    auto it = values.find(def.name);
    double value = 0.0;
    if (it == values.end()) {
      problems.push_back(std::string("metric not measured: ") + def.name);
    } else if (!std::isfinite(it->second)) {
      problems.push_back(std::string("metric not finite: ") + def.name);
    } else {
      value = it->second;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, value, def.unit);
    metrics += buf;
  }
  for (const auto& problem : problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
      problems.empty() ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(verdict.attempted, 1)),
      static_cast<unsigned long long>(verdict.failed), metrics.c_str());
  std::fflush(stdout);
}

void log_pass(const char* what, const Rep& rep) {
  const Pass& p = rep.pass;
  std::fprintf(stderr,
               "perfbench: %-11s setup %.3f s, %llu tasks in %.3f s = %.0f tasks/s, "
               "%.3f us cpu/task, latency p50 %.3f ms p99 %.3f ms (%zu samples)\n",
               what, rep.setup_s, static_cast<unsigned long long>(p.tasks),
               p.window_s, p.tasks_per_s(),
               ratio(p.usage.cpu_s, static_cast<double>(p.tasks)) * 1e6,
               perfbench::median(p.latency_ms), perfbench::tail(p.latency_ms, 0.99),
               p.latency_ms.size());
}

int run(const Args& args, const Workload& workload) {
  Context ctx(args, workload);
  if (!args.trace) {
    // p50: slices of repetitions that kept up with the offered rate, or of
    // every repetition when none did.
    std::vector<double> tps, cpu, p50, p50_all, setup;
    for (int r = 0; r < kTimedReps; ++r) {
      const Rep rep = run_rep(ctx, args.seconds / kTimedReps, false);
      log_pass("timed pass", rep);
      if (!rep.pass.error.empty()) break;
      const Pass& p = rep.pass;
      for (double v : rate_samples(p, workload.paced)) tps.push_back(v);
      cpu.insert(cpu.end(), p.slice_cpu_us.begin(), p.slice_cpu_us.end());
      for (double v : slice_latency_tails(p, workload.paced, 0.5)) {
        p50_all.push_back(v);
        if (p.rate_ok) p50.push_back(v);
      }
      setup.push_back(rep.setup_s);
    }
    std::map<std::string, double> values;
    if (!tps.empty()) {
      values = {{"tasks_per_s", perfbench::median(tps)},
                {"cpu_us_per_task", perfbench::median(cpu)},
                {"latency_p50_ms", perfbench::median(p50.empty() ? p50_all : p50)},
                {"setup_s", perfbench::median(setup)},
                {"peak_rss_mb", peak_rss_mb()}};
    }
    print_result(ctx.verdict, kEndToEnd, values);
    return 0;
  }
  const Rep timed = run_rep(ctx, args.seconds * 0.3, false);
  log_pass("timed pass", timed);
  Rep traced = run_rep(ctx, args.seconds * 0.4, true);
  log_pass("traced pass", traced);
  auto& ledger = traced.ledger;
  if (!ledger.empty()) {
    ledger["trace.overhead_frac"] =
        1.0 - ratio(perfbench::median(rate_samples(traced.pass, workload.paced)),
                    perfbench::median(rate_samples(timed.pass, workload.paced)));
    ledger["paced.generator_late_ms_p99"] = perfbench::tail(timed.pass.late_ms, 0.99);
    ledger["latency.p99_ms"] =
        perfbench::median(slice_latency_tails(timed.pass, workload.paced, 0.99));
    ledger["latency.samples"] = static_cast<double>(timed.pass.latency_ms.size());
    ledger["bound.submit_only_tasks_per_s"] = bound_submit_only(ctx);
    ledger["bound.drain_only_tasks_per_s"] = bound_drain_only(ctx);
  }
  print_result(ctx.verdict, kPerLayer, ledger);
  return 0;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value != "0";
    } else if (key == "--journals") {
      args.journals = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload burst|paced|durable --seed N --seconds S"
                 " --trace 0|1 [--journals DIR]\n",
                 argv[0]);
    return 2;
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return run(args, *workload);
}
