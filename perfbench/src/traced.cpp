// perfbench trace — in-process traced replay: the per-layer numbers.
//
// Each stream line goes through the calls `deeppool serve --unix` makes for
// one request (io::Server::serve_connection minus the socket): admission,
// pool lease, api::process_serve_line, response envelope, dump. Every line
// runs that serve path twice, once bare and once with an obs::Span around
// each call under a per-request obs::TraceContext; which goes first
// alternates, and the wall-time ratio of the two is the tracing overhead.
//
// The calls nested inside process_serve_line cannot be spanned from
// outside the program, so after the serve path each line is taken apart
// under a second root span ("standalone"): the nested public calls run on
// their own with the same input — parse, decode, handle, validate, by_name,
// generate, run_schedule on a warm shared PlanCache, result to_json, the
// planner, a PlanCache lookup of a resident key, resolve_spec, run_spec.
// A layer this workload never reaches is timed on the --probe line instead
// (root "probe"), so every layer is measured on every workload; its share
// is 0 because no request of the workload spends time there.
//
//   --stream FILE --warmup FILE --probe FILE --out FILE --chrome FILE
//   --seconds S --connections C --jobs N
//
// Spans are kept in memory (name, start, end, parent, request id) and
// written at the end as a Chrome trace (pid 1 serve path, 2 standalone,
// 3 probe; tid = request id) plus a per-layer summary.
#include <map>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "api/admission.h"
#include "api/request.h"
#include "api/response.h"
#include "api/serve.h"
#include "api/service.h"
#include "common.h"
#include "core/plan_cache.h"
#include "core/planner.h"
#include "core/profile.h"
#include "models/cost_model.h"
#include "models/zoo.h"
#include "net/network_model.h"
#include "obs/context.h"
#include "obs/span.h"
#include "runtime/scenario_config.h"
#include "sched/scheduler.h"
#include "sched/workload.h"
#include "util/cancel.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace perfbench {
namespace {

using namespace deeppool;

/// An obs::Span when tracing, nothing otherwise — one code path for both
/// passes of the serve path.
class MaybeSpan {
 public:
  MaybeSpan(bool on, const char* name) {
    if (on) span_.emplace(name);
  }

 private:
  std::optional<obs::Span> span_;
};

/// The worker count a schedule request asks Service::pool for.
std::size_t schedule_tasks(const api::Request& request) {
  const auto* schedule = std::get_if<api::ScheduleRequest>(&request.body);
  if (schedule == nullptr) return 0;
  const sched::WorkloadSpec& w = schedule->spec.workload;
  return w.arrival == "trace" ? w.arrival_times.size()
                              : static_cast<std::size_t>(w.num_jobs);
}

/// The server side of one request, as io::Server runs it with no
/// admission caps configured.
class ServePath {
 public:
  ServePath(api::Service& service, int connections)
      : service_(service),
        admission_(api::AdmissionOptions{}),
        connections_(connections) {}

  /// Returns whether the reply was ok. A traced pass appends its lease
  /// wait to `waits`.
  bool run(const std::string& line, std::size_t tasks, bool traced,
           std::vector<double>& waits) {
    bool admitted = false;
    {
      MaybeSpan span(traced, "api.admission");
      admission_.try_enqueue();
      admission_.dequeue();
      admitted = admission_.try_admit();
    }
    if (!admitted) throw std::logic_error("admission refused without caps");
    const Clock::time_point started = Clock::now();
    api::ServeLineResult served;
    {
      util::PoolLease lease;
      {
        MaybeSpan span(traced, "util.lease");
        lease = service_.leases().acquire(connections_, &transport_);
        if (tasks > 0) lease.pool(tasks);
      }
      if (traced) waits.push_back(lease.wait_s());
      {
        api::RequestScope scope(&lease, &transport_);
        MaybeSpan span(traced, "api.pipeline");
        api::ServeLineInput input;
        input.line = line;
        served = api::process_serve_line(service_, options_, std::move(input),
                                         nullptr);
      }
      MaybeSpan span(traced, "util.lease");
      lease.release();
    }
    {
      MaybeSpan span(traced, "api.admission");
      admission_.release();
      admission_.observe_handle_ms(seconds_between(started, Clock::now()) *
                                   1e3);
    }
    Json envelope;
    {
      MaybeSpan span(traced, "api.envelope");
      envelope = api::to_json(served.response);
    }
    std::string reply;
    {
      MaybeSpan span(traced, "api.dump");
      reply = envelope.dump();
    }
    return served.response.ok;
  }

  const util::CancelToken& transport() const { return transport_; }

 private:
  api::Service& service_;
  api::AdmissionController admission_;
  api::ServeOptions options_;
  int connections_;
  /// The server hands each request its connection's cancel token, so the
  /// scheduler polls one between events; this one never fires.
  util::CancelToken transport_;
};

/// The nested public calls of one request, each run on its own.
class Standalone {
 public:
  Standalone(api::Service& service, const util::CancelToken& transport,
             int connections, int jobs)
      : service_(service),
        transport_(transport),
        connections_(connections),
        jobs_(jobs),
        cost_(models::DeviceSpec::a100()) {}

  /// Runs run_schedule once untimed so the shared PlanCache holds every
  /// job shape of `line` (a no-op for non-schedule lines).
  void warm(const std::string& line) {
    const api::Request request = api::request_from_json(Json::parse(line));
    if (const auto* s = std::get_if<api::ScheduleRequest>(&request.body)) {
      util::PoolLease lease = service_.leases().acquire(connections_,
                                                        &transport_);
      sched::run_schedule(s->spec,
                          run_options(lease, schedule_tasks(request)));
    }
  }

  void run(const std::string& line) {
    Json parsed;
    {
      DP_SPAN("api.parse");
      parsed = Json::parse(line);
    }
    api::Request request;
    {
      DP_SPAN("api.decode");
      request = api::request_from_json(parsed);
    }
    {
      util::PoolLease lease = service_.leases().acquire(connections_,
                                                        &transport_);
      api::RequestScope scope(&lease, &transport_);
      api::Response response;
      DP_SPAN("api.handle");
      response = service_.handle(request);
    }
    if (const auto* s = std::get_if<api::ScheduleRequest>(&request.body)) {
      schedule(s->spec, schedule_tasks(request));
    } else if (const auto* p = std::get_if<api::PlanRequest>(&request.body)) {
      scenario(p->spec, false);
    } else if (const auto* m =
                   std::get_if<api::SimulateRequest>(&request.body)) {
      scenario(m->spec, true);
    }
  }

  std::int64_t jobs_simulated() const { return jobs_simulated_; }

 private:
  /// The options the Service's schedule handler passes, on `lease`'s pool
  /// and the shared cache.
  sched::ScheduleRunOptions run_options(util::PoolLease& lease,
                                        std::size_t tasks) {
    sched::ScheduleRunOptions options;
    options.jobs = jobs_;
    options.pool = &lease.pool(tasks);
    options.shared_plan_cache = &cache_;
    options.cancel = &transport_;
    return options;
  }

  void schedule(const sched::ScheduleSpec& spec, std::size_t tasks) {
    const sched::WorkloadSpec& workload = spec.workload;
    {
      DP_SPAN("sched.validate");
      sched::validate(workload);
    }
    // One lookup per mix entry, as the validation of a mix makes them.
    const auto lookup_models = [](const std::vector<sched::ModelMixEntry>& mix) {
      for (const sched::ModelMixEntry& entry : mix) {
        DP_SPAN("models.by_name");
        models::zoo::by_name(entry.model);
      }
    };
    if (workload.bg_fraction < 1.0) lookup_models(workload.fg_mix);
    if (workload.bg_fraction > 0.0) lookup_models(workload.bg_mix);
    std::vector<sched::JobSpec> jobs;
    {
      DP_SPAN("sched.generate");
      jobs = sched::generate_workload(workload);
    }
    util::PoolLease lease = service_.leases().acquire(connections_,
                                                      &transport_);
    const sched::ScheduleRunOptions options = run_options(lease, tasks);
    sched::ScheduleResult result;
    {
      DP_SPAN("sched.run");
      result = sched::run_schedule(spec, options);
    }
    Json result_json;
    {
      DP_SPAN("sched.result_json");
      result_json = sched::to_json(result);
    }
    jobs_simulated_ += static_cast<std::int64_t>(result.jobs.size());

    // The distinct job shapes, keyed the way the scheduler keys its
    // PlanCache lookups; foreground shapes also go through the planner.
    const net::NetworkModel network(
        net::NetworkSpec::from_name(spec.config.network));
    std::set<core::PlanCacheKey> keys;
    for (const sched::JobSpec& job : jobs) {
      const bool fg = job.qos == sched::QosClass::kForeground;
      core::PlanCacheKey key;
      key.model = job.model;
      key.network = spec.config.network;
      key.global_batch = job.global_batch;
      key.amp_limit = fg ? job.amp_limit : 0.0;
      key.gpu_candidates = fg ? spec.config.num_gpus : 1;
      key.pow2_only = fg ? spec.config.pow2_only : true;
      key.data_parallel = !fg;
      if (keys.insert(key).second && fg) {
        plan(job.model, network, spec.config.num_gpus, job.global_batch,
             spec.config.pow2_only, job.amp_limit);
      }
    }
    for (const core::PlanCacheKey& key : keys) lookup(key, nullptr);
  }

  void scenario(const runtime::ScenarioSpec& spec, bool simulate) {
    {
      DP_SPAN("models.by_name");
      models::zoo::by_name(spec.model);
    }
    {
      DP_SPAN("runtime.resolve");
      runtime::resolve_spec(spec);
    }
    if (simulate) {
      DP_SPAN("runtime.run_spec");
      runtime::run_spec(spec);
    }
    if (spec.fg_mode != "burst") return;
    const net::NetworkModel network(net::NetworkSpec::from_name(spec.network));
    const core::TrainingPlan planned =
        plan(spec.model, network, spec.config.num_gpus, spec.global_batch,
             spec.pow2_only, spec.amp_limit);
    core::PlanCacheKey key;
    key.model = spec.model;
    key.network = spec.network;
    key.global_batch = spec.global_batch;
    key.amp_limit = spec.amp_limit;
    key.gpu_candidates = spec.config.num_gpus;
    key.pow2_only = spec.pow2_only;
    lookup(key, &planned);
  }

  /// Planner::plan on a freshly built profile set; only the DP is timed.
  core::TrainingPlan plan(const std::string& model_name,
                          const net::NetworkModel& network, int gpus,
                          std::int64_t batch, bool pow2_only, double amp) {
    const models::ModelGraph model = models::zoo::by_name(model_name);
    const core::ProfileSet profiles(
        model, cost_, network, core::ProfileOptions{gpus, batch, pow2_only});
    DP_SPAN("core.plan");
    return core::Planner(profiles).plan({amp});
  }

  /// Times one lookup of a key that is already resident. `planned` makes
  /// the key resident on first sight; schedule keys already are.
  void lookup(const core::PlanCacheKey& key,
              const core::TrainingPlan* planned) {
    const auto compute = [&]() -> core::TrainingPlan {
      if (planned == nullptr) {
        throw std::logic_error("plan cache key " + key.model +
                               " is not resident");
      }
      return *planned;
    };
    cache_.plan(key, compute);
    DP_SPAN("core.cache_lookup");
    cache_.plan(key, compute);
  }

  api::Service& service_;
  const util::CancelToken& transport_;
  int connections_;
  int jobs_;
  models::CostModel cost_;
  core::PlanCache cache_;
  std::int64_t jobs_simulated_ = 0;
};

/// One request's spans (probe runs count as requests -1, -2, ...).
struct RequestSpans {
  std::int64_t request = 0;
  double offset_s = 0;  ///< collector epoch, seconds from the run start
  std::vector<obs::SpanRecord> spans;
};

struct LayerStats {
  std::map<std::int64_t, double> per_request_s;  ///< summed per request
  double self_s = 0;
  std::int64_t calls = 0;
};

/// The spans this file opens around layer calls. Spans the program opens
/// itself (e.g. "plan_cache/resolve" under a standalone run_schedule) land
/// in the same tree; they show in the Chrome trace but are not layers here.
const std::set<std::string>& layer_names() {
  static const std::set<std::string> kLayers{
      "api.admission",  "util.lease",        "api.pipeline",
      "api.envelope",   "api.dump",          "api.parse",
      "api.decode",     "api.handle",        "sched.validate",
      "models.by_name", "sched.generate",    "sched.run",
      "sched.result_json", "core.plan",      "core.cache_lookup",
      "runtime.resolve", "runtime.run_spec"};
  return kLayers;
}

/// Chrome-trace process of a span: 1 serve path, 2 standalone, 3 probe.
int chrome_pid(const std::vector<obs::SpanRecord>& spans,
               const obs::SpanRecord& span) {
  const obs::SpanRecord* root = &span;
  while (root->parent >= 0) {
    root = &spans[static_cast<std::size_t>(root->parent)];
  }
  if (root->name == "request") return 1;
  return root->name == "standalone" ? 2 : 3;
}

/// obs.span_ns: one DP_SPAN open+close under an installed TraceContext.
double span_cost_ns() {
  constexpr int kSpans = 2000;
  std::vector<double> per_span;
  for (int batch = 0; batch < 7; ++batch) {
    obs::SpanCollector collector;
    const obs::ContextScope scope(obs::TraceContext{1, &collector, -1});
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kSpans; ++i) {
      DP_SPAN("perfbench.span_probe");
    }
    per_span.push_back(seconds_between(start, Clock::now()) * 1e9 / kSpans);
  }
  return percentile(per_span, 0.5);
}

}  // namespace

int run_trace(const Args& args) {
  const std::vector<std::string> lines = read_lines(args.str("stream"));
  const std::string warmup = read_lines(args.str("warmup")).front();
  const std::string probe = read_lines(args.str("probe")).front();
  const double seconds = args.num("seconds", 10);
  const int connections = static_cast<int>(args.num("connections", 1));
  const int jobs = static_cast<int>(args.num("jobs", 1));

  api::Service service(api::ServiceOptions{jobs, nullptr, 0});
  ServePath serve(service, connections);
  Standalone standalone(service, serve.transport(), connections, jobs);
  std::vector<double> waits;
  // The server answered the same set-up request before its stream.
  if (!serve.run(warmup, 0, false, waits)) {
    throw std::runtime_error("set-up request failed in-process");
  }
  standalone.warm(warmup);

  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<RequestSpans> traces;
  double bare_s = 0, traced_s = 0;
  std::int64_t hits = 0, misses = 0, failed = 0, requests = 0;
  for (std::int64_t i = 0; i == 0 || Clock::now() < deadline; ++i) {
    const std::string& line = lines[static_cast<std::size_t>(i) % lines.size()];
    const std::size_t tasks =
        schedule_tasks(api::request_from_json(Json::parse(line)));
    auto collector = std::make_unique<obs::SpanCollector>();
    RequestSpans record;
    record.request = i + 1;
    record.offset_s = seconds_between(t0, Clock::now());
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (i % 2 == 1);
      const api::ServiceStats before = service.stats();
      const Clock::time_point start = Clock::now();
      bool ok = false;
      if (traced) {
        const obs::ContextScope scope(
            obs::TraceContext{static_cast<std::uint64_t>(i + 1),
                              collector.get(), -1});
        DP_SPAN("request");
        ok = serve.run(line, tasks, true, waits);
      } else {
        ok = serve.run(line, tasks, false, waits);
      }
      (traced ? traced_s : bare_s) += seconds_between(start, Clock::now());
      const api::ServiceStats after = service.stats();
      hits += after.plan_cache_hits - before.plan_cache_hits;
      misses += after.plan_cache_misses - before.plan_cache_misses;
      if (!ok) ++failed;
    }
    {
      const obs::ContextScope scope(obs::TraceContext{
          static_cast<std::uint64_t>(i + 1), collector.get(), -1});
      DP_SPAN("standalone");
      standalone.run(line);
    }
    record.spans = collector->records();
    traces.push_back(std::move(record));
    ++requests;
  }

  // Aggregate: self time = duration minus the children's durations.
  std::map<std::string, LayerStats> layers, probes;
  double request_s = 0;
  const auto aggregate = [&](const RequestSpans& r,
                             std::map<std::string, LayerStats>& into) {
    std::vector<double> children(r.spans.size(), 0.0);
    for (const obs::SpanRecord& s : r.spans) {
      if (s.parent >= 0 && layer_names().count(s.name) != 0) {
        children[static_cast<std::size_t>(s.parent)] += s.dur_s;
      }
    }
    for (const obs::SpanRecord& s : r.spans) {
      if (s.name == "request") request_s += s.dur_s;
      if (layer_names().count(s.name) == 0) continue;
      LayerStats& stats = into[s.name];
      stats.per_request_s[r.request] += s.dur_s;
      stats.self_s += s.dur_s - children[static_cast<std::size_t>(s.id)];
      ++stats.calls;
    }
  };
  for (const RequestSpans& r : traces) aggregate(r, layers);

  // Layers no request of this workload reached: time them on the probe.
  const std::size_t serve_records = traces.size();
  for (int k = 0; k < 3; ++k) {
    auto collector = std::make_unique<obs::SpanCollector>();
    RequestSpans record;
    record.request = -(k + 1);
    record.offset_s = seconds_between(t0, Clock::now());
    {
      const obs::ContextScope scope(obs::TraceContext{
          static_cast<std::uint64_t>(1000000 + k), collector.get(), -1});
      DP_SPAN("probe");
      standalone.run(probe);
    }
    record.spans = collector->records();
    traces.push_back(std::move(record));
  }
  for (std::size_t i = serve_records; i < traces.size(); ++i) {
    aggregate(traces[i], probes);
  }

  Json summary;
  summary["requests"] = Json(requests);
  summary["failed"] = Json(failed);
  summary["request_s"] = Json(request_s);
  summary["bare_s"] = Json(bare_s);
  summary["traced_s"] = Json(traced_s);
  summary["tracing_overhead_frac"] =
      Json(bare_s > 0 ? traced_s / bare_s - 1.0 : 0.0);
  summary["cache_hits"] = Json(hits);
  summary["cache_misses"] = Json(misses);
  summary["cache_hit_ratio"] =
      Json(hits + misses > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0);
  summary["sched_jobs"] = Json(standalone.jobs_simulated());
  summary["span_ns"] = Json(span_cost_ns());
  Json::Object out_layers;
  const auto emit = [&](const std::string& name, const LayerStats& stats,
                        bool probed) {
    std::vector<double> per_request;
    for (const auto& [request, s] : stats.per_request_s) {
      per_request.push_back(s);
    }
    Json layer;
    layer["p50_us"] = Json(percentile(per_request, 0.50) * 1e6);
    layer["p99_us"] = Json(percentile(per_request, 0.99) * 1e6);
    layer["calls"] = Json(stats.calls);
    layer["share"] =
        Json(probed || request_s <= 0 ? 0.0 : stats.self_s / request_s);
    layer["probe"] = Json(probed);
    out_layers[name] = std::move(layer);
  };
  for (const auto& [name, stats] : layers) emit(name, stats, false);
  for (const std::string& name : layer_names()) {
    if (layers.count(name) == 0) emit(name, probes[name], true);
  }
  {
    LayerStats wait;
    for (std::size_t i = 0; i < waits.size(); ++i) {
      wait.per_request_s[static_cast<std::int64_t>(i)] = waits[i];
      wait.self_s += waits[i];
    }
    wait.calls = static_cast<std::int64_t>(waits.size());
    emit("util.lease_wait", wait, false);
  }
  summary["layers"] = Json(std::move(out_layers));
  write_file(args.str("out"), summary.dump(2) + "\n");

  TraceRecorder chrome;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const RequestSpans& r = traces[i];
    for (const obs::SpanRecord& s : r.spans) {
      if (s.dur_s < 0) continue;
      chrome.record(chrome_pid(r.spans, s), static_cast<int>(r.request),
                    s.name, "perfbench", r.offset_s + s.start_s, s.dur_s);
    }
  }
  chrome.save(args.str("chrome"));
  return failed == 0 ? 0 : 1;
}

}  // namespace perfbench
