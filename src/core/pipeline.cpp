#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>
#include <utility>

#include "contract/fleet_soa.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace ccd::core {
namespace {

/// Registry histogram for one pipeline stage's latency (microseconds).
util::metrics::Histogram* stage_histogram(const char* stage) {
  return &util::metrics::registry().histogram(std::string("ccd.pipeline.") +
                                              stage + "_us");
}

/// Mean |score - expert consensus| for a worker; a worker with no reviews
/// brings no usable feedback (infinite distance => excluded).
double accuracy_distance(const data::ReviewTrace& trace,
                         const detect::ExpertPanel& experts,
                         data::WorkerId id) {
  const auto& review_ids = trace.reviews_of_worker(id);
  if (review_ids.empty()) return 1e9;
  double acc = 0.0;
  for (const data::ReviewId rid : review_ids) {
    const data::Review& r = trace.review(rid);
    acc += std::abs(r.score - experts.consensus(r.product));
  }
  return acc / static_cast<double>(review_ids.size());
}

const effort::EffortFit& class_fit(const effort::ClassFits& fits,
                                   DetectedClass cls) {
  switch (cls) {
    case DetectedClass::kHonest: return fits.honest;
    case DetectedClass::kNonCollusiveMalicious: return fits.ncm;
    case DetectedClass::kCollusiveMalicious: return fits.cm;
  }
  return fits.honest;
}

/// Fail-fast sanitize: reject non-finite fields outright, naming the
/// offender. Lenient modes route through data::sanitize_trace instead.
void check_trace_finite(const data::ReviewTrace& trace) {
  for (const data::Worker& w : trace.workers()) {
    if (!std::isfinite(w.skill)) {
      DataError e("non-finite skill for worker " + std::to_string(w.id));
      e.with_stage("sanitize").with_worker(w.id);
      throw e;
    }
  }
  for (const data::Product& p : trace.products()) {
    if (!std::isfinite(p.true_quality)) {
      DataError e("non-finite quality for product " + std::to_string(p.id));
      e.with_stage("sanitize");
      throw e;
    }
  }
  for (const data::Review& r : trace.reviews()) {
    if (!std::isfinite(r.score)) {
      DataError e("non-finite score in review " + std::to_string(r.id));
      e.with_stage("sanitize").with_worker(r.worker).with_round(r.round);
      throw e;
    }
  }
}

/// The all-zero design used for quarantined subproblems: no contract, no
/// payment, no utility. Distinct from the designer's own exclusion result
/// (`excluded` stays false; WorkerOutcome::quarantined marks the cause).
contract::DesignResult quarantined_design() { return contract::DesignResult{}; }

}  // namespace

const char* to_string(StageMode mode) {
  switch (mode) {
    case StageMode::kFailFast: return "fail-fast";
    case StageMode::kQuarantine: return "quarantine";
    case StageMode::kFallback: return "fallback";
  }
  return "?";
}

const char* to_string(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kSanitize: return "sanitize";
    case PipelineStage::kDetect: return "detect";
    case PipelineStage::kCluster: return "cluster";
    case PipelineStage::kFit: return "fit";
    case PipelineStage::kSolve: return "solve";
  }
  return "?";
}

StageMode FaultPolicy::mode_for(PipelineStage stage) const {
  switch (stage) {
    case PipelineStage::kSanitize: return sanitize;
    case PipelineStage::kDetect: return detect;
    case PipelineStage::kCluster: return cluster;
    case PipelineStage::kFit: return fit;
    case PipelineStage::kSolve: return solve;
  }
  return StageMode::kFailFast;
}

std::string DegradationEvent::to_string() const {
  std::ostringstream os;
  os << ccd::core::to_string(stage) << '/' << ccd::core::to_string(action)
     << " [" << ccd::to_string(code) << "] " << detail;
  if (worker >= 0) os << " worker=" << worker;
  if (subproblem >= 0) os << " subproblem=" << subproblem;
  return os.str();
}

std::string HealthReport::to_string() const {
  if (!degraded() && !sanitized && !cancelled) return "health: clean";
  std::ostringstream os;
  os << "health: " << events.size() << " event(s), quarantined_workers="
     << quarantined_workers << " fallback_workers=" << fallback_workers
     << " fit_fallbacks=" << fit_fallbacks;
  if (cancelled) {
    os << "; cancelled (" << util::to_string(cancel_reason)
       << "), unsolved_subproblems=" << unsolved_subproblems;
  }
  if (sanitized) os << "; " << sanitize.to_string();
  for (const DegradationEvent& e : events) os << "\n  " << e.to_string();
  return os.str();
}

std::string StageTimings::to_string() const {
  const auto ms = [](double s) { return util::format_double(s * 1e3, 2); };
  std::ostringstream os;
  os << "timings (ms): sanitize=" << ms(sanitize_s)
     << " detect=" << ms(detect_s) << " cluster=" << ms(cluster_s)
     << " fit=" << ms(fit_s) << " solve=" << ms(solve_s)
     << " total=" << ms(total_s);
  if (solve_spans.count > 0) {
    os << "; solve spans (us): n=" << solve_spans.count
       << " p50=" << util::format_double(solve_spans.p50(), 1)
       << " p95=" << util::format_double(solve_spans.p95(), 1);
  }
  return os.str();
}

std::vector<double> PipelineResult::compensations_of_class(
    data::WorkerClass cls) const {
  std::vector<double> out;
  for (const WorkerOutcome& w : workers) {
    if (w.true_class == cls) out.push_back(w.compensation);
  }
  return out;
}

PipelineResult run_pipeline(const data::ReviewTrace& trace,
                            const PipelineConfig& config) {
  config.requester.validate();
  CCD_CHECK_MSG(trace.indexes_built(), "pipeline requires trace indexes");

  PipelineResult result;
  HealthReport& health = result.health;
  const FaultPolicy& policy = config.faults;

  // Cooperative cancellation: the first poll that latches the token
  // records one degradation event naming the boundary; every later stage
  // just observes health.cancelled and degrades the same way its own
  // catch path would, so the partial result stays well-formed.
  const util::CancellationToken* cancel = config.cancel;
  const auto poll_cancel = [&](PipelineStage stage) {
    if (health.cancelled) return true;
    if (cancel == nullptr || !cancel->poll()) return false;
    health.cancelled = true;
    health.cancel_reason = cancel->reason();
    DegradationEvent ev;
    ev.stage = stage;
    ev.action = StageMode::kQuarantine;
    ev.code = ErrorCode::kDeadline;
    ev.detail = std::string("run cancelled (") +
                util::to_string(health.cancel_reason) + ") before the " +
                to_string(stage) + " stage";
    health.events.push_back(std::move(ev));
    return true;
  };

  // Observability: per-stage RAII spans write this run's wall clock into
  // result.timings and the process-wide ccd.pipeline.* latency histograms
  // (stopped explicitly so the figures land before `result` is returned).
  util::metrics::registry().counter("ccd.pipeline.runs").add(1);
  util::metrics::ScopedTimer total_timer(stage_histogram("total"),
                                         &result.timings.total_s);

  // ---- Sanitize stage ----------------------------------------------------
  // Fail-fast scans for the one corruption class ReviewTrace::validate()
  // historically missed at build time (non-finite fields reach here when a
  // trace is assembled in memory rather than loaded); the lenient modes
  // rebuild the trace through the sanitizer and keep going.
  util::metrics::ScopedTimer sanitize_timer(stage_histogram("sanitize"),
                                            &result.timings.sanitize_s);
  const data::ReviewTrace* active = &trace;
  std::optional<data::SanitizedTrace> sanitized_storage;
  if (poll_cancel(PipelineStage::kSanitize)) {
    // Cancelled before any work: use the trace as-is; the solve stage
    // below quarantines everything, so nothing reads unsanitized fields.
  } else if (policy.sanitize == StageMode::kFailFast) {
    check_trace_finite(trace);
  } else {
    sanitized_storage = data::sanitize_trace(trace, config.sanitize);
    health.sanitize = sanitized_storage->report;
    health.sanitized = true;
    if (!health.sanitize.clean()) {
      DegradationEvent ev;
      ev.stage = PipelineStage::kSanitize;
      ev.action = policy.sanitize;
      ev.code = ErrorCode::kData;
      ev.detail = health.sanitize.to_string();
      health.events.push_back(std::move(ev));
    }
    active = &sanitized_storage->trace;
  }
  if (config.load_report) {
    // The trace came from a lenient load: fold the load-layer counters
    // into this run's health (the sanitize-stage counters, when that
    // stage ran, describe the same rows post-load, so only the counters
    // the loader alone can know are added) and flag any partial read.
    health.sanitize.unparseable_rows += config.load_report->unparseable_rows;
    health.sanitize.aborted_files += config.load_report->aborted_files;
    health.sanitize.rows_before_abort += config.load_report->rows_before_abort;
    if (!config.load_report->clean()) {
      DegradationEvent ev;
      ev.stage = PipelineStage::kSanitize;
      ev.action = StageMode::kFallback;
      ev.code = ErrorCode::kData;
      ev.detail = "lenient load: " + config.load_report->to_string();
      health.events.push_back(std::move(ev));
    }
  }
  sanitize_timer.stop();
  const data::ReviewTrace& t = *active;

  const std::size_t n = t.workers().size();
  result.workers.resize(n);

  // ---- Detection stage ---------------------------------------------------
  util::metrics::ScopedTimer detect_timer(stage_histogram("detect"),
                                          &result.timings.detect_s);
  std::optional<data::WorkerMetrics> metrics;
  std::optional<detect::ExpertPanel> experts;
  std::optional<detect::MaliciousDetector> detector;
  std::vector<data::WorkerId> malicious;
  try {
    if (poll_cancel(PipelineStage::kDetect)) {
      // Same degradation as an absorbed detect failure: fleet treated
      // honest; the single cancellation event is already recorded.
      result.detector_quality = {};
    } else {
      metrics.emplace(t);
      experts.emplace(t, *metrics, config.expert);
      detector.emplace(t, *experts, config.detector);
      result.detector_quality =
          detector->evaluate(t, config.malicious_threshold);
      if (!config.use_ground_truth_labels) {
        malicious = detector->flagged(config.malicious_threshold);
      }
    }
  } catch (Error& e) {
    if (policy.detect == StageMode::kFailFast) {
      e.with_stage("detect");
      throw;
    }
    // Degraded detection: treat the fleet as honest (no flags, neutral
    // probabilities). Contracts are still designed for everyone, so the
    // run stays useful as an upper bound on trust.
    DegradationEvent ev;
    ev.stage = PipelineStage::kDetect;
    ev.action = policy.detect;
    ev.code = e.code();
    ev.detail = e.message();
    health.events.push_back(std::move(ev));
    malicious.clear();
    result.detector_quality = {};
  }
  if (config.use_ground_truth_labels) {
    for (const data::Worker& w : t.workers()) {
      if (w.true_class != data::WorkerClass::kHonest) malicious.push_back(w.id);
    }
  }
  detect_timer.stop();

  // ---- Clustering stage --------------------------------------------------
  util::metrics::ScopedTimer cluster_timer(stage_histogram("cluster"),
                                           &result.timings.cluster_s);
  try {
    if (poll_cancel(PipelineStage::kCluster)) {
      result.collusion = {};
      result.collusion.community_of.assign(n, -1);
      result.collusion.non_collusive = malicious;
    } else {
      result.collusion = detect::cluster_collusive_workers(t, malicious);
    }
  } catch (Error& e) {
    if (policy.cluster == StageMode::kFailFast) {
      e.with_stage("cluster");
      throw;
    }
    DegradationEvent ev;
    ev.stage = PipelineStage::kCluster;
    ev.action = policy.cluster;
    ev.code = e.code();
    ev.detail = e.message();
    health.events.push_back(std::move(ev));
    // Degraded clustering: no communities; flagged workers stay NCM.
    result.collusion = {};
    result.collusion.community_of.assign(n, -1);
    result.collusion.non_collusive = malicious;
  }
  cluster_timer.stop();

  // ---- Fitting stage -----------------------------------------------------
  // The fit span covers the class fits here plus the per-community fits
  // below (they run inside subproblem construction).
  util::metrics::ScopedTimer fit_timer(stage_histogram("fit"),
                                       &result.timings.fit_s);
  if (poll_cancel(PipelineStage::kFit)) {
    // Cancelled fitting degrades like an absorbed fit failure: the
    // library default concave model for every class. (A fail-fast fit
    // policy must not abort here — cancellation is silent by contract.)
    effort::EffortFit def;
    def.model = effort::QuadraticEffort(-1.0, 8.0, 2.0);
    def.fallback = true;
    result.class_fits.honest = def;
    result.class_fits.ncm = def;
    result.class_fits.cm = def;
    ++health.fit_fallbacks;
  } else {
    try {
      CCD_CHECK_MSG(metrics.has_value(),
                    "worker metrics unavailable (detect stage failed)");
      result.class_fits = effort::fit_all_classes(*metrics, config.fit);
    } catch (Error& e) {
      if (policy.fit == StageMode::kFailFast) {
        e.with_stage("fit");
        throw;
      }
      DegradationEvent ev;
      ev.stage = PipelineStage::kFit;
      ev.action = policy.fit;
      ev.code = e.code();
      ev.detail = e.message();
      health.events.push_back(std::move(ev));
      // Degraded fitting: the library default concave model for every class.
      effort::EffortFit def;
      def.model = effort::QuadraticEffort(-1.0, 8.0, 2.0);
      def.fallback = true;
      result.class_fits.honest = def;
      result.class_fits.ncm = def;
      result.class_fits.cm = def;
      ++health.fit_fallbacks;
    }
  }

  // ---- Per-worker attributes ---------------------------------------------
  // NCM = flagged malicious that clustering did not absorb into a
  // community; derive it from the flagged set itself so the detector and
  // the clustering stay one source of truth.
  std::vector<bool> is_ncm(n, false);
  for (const data::WorkerId id : malicious) {
    is_ncm[id] = result.collusion.community_of[id] < 0;
  }

  for (data::WorkerId id = 0; id < n; ++id) {
    WorkerOutcome& out = result.workers[id];
    out.id = id;
    out.true_class = t.worker(id).true_class;
    out.malicious_probability = detector ? detector->probability(id) : 0.0;
    out.accuracy_distance =
        experts ? accuracy_distance(t, *experts, id) : 0.0;
    const std::int32_t community = result.collusion.community_of[id];
    if (community >= 0) {
      out.detected_class = DetectedClass::kCollusiveMalicious;
      out.partners = result.collusion.communities[community].members.size() - 1;
    } else if (is_ncm[id]) {
      out.detected_class = DetectedClass::kNonCollusiveMalicious;
      out.partners = 0;
    } else {
      out.detected_class = DetectedClass::kHonest;
      out.partners = 0;
    }
    out.weight = feedback_weight(config.requester, out.accuracy_distance,
                                 out.malicious_probability, out.partners);
  }

  // ---- Subproblem construction (BiP decomposition, §IV-B) ---------------
  const auto make_spec = [&](const effort::EffortFit& fit, double omega,
                             double weight) {
    contract::SubproblemSpec spec;
    spec.psi = fit.model;
    spec.incentives.beta = config.requester.beta;
    spec.incentives.omega = omega;
    spec.weight = weight;
    spec.mu = config.requester.mu;
    spec.intervals = config.requester.intervals;
    return spec;
  };

  // Individuals: everyone not in a detected community.
  for (data::WorkerId id = 0; id < n; ++id) {
    if (result.collusion.community_of[id] >= 0) continue;
    WorkerOutcome& out = result.workers[id];
    const double omega =
        out.detected_class == DetectedClass::kHonest
            ? 0.0
            : config.requester.omega_malicious;
    SubproblemOutcome sub;
    sub.workers = {id};
    sub.spec = make_spec(class_fit(result.class_fits, out.detected_class),
                         omega, out.weight);
    result.subproblems.push_back(std::move(sub));
  }
  // Communities as meta-workers.
  for (std::size_t c = 0; c < result.collusion.communities.size(); ++c) {
    const detect::Community& community = result.collusion.communities[c];
    double weight = 0.0;
    for (const data::WorkerId id : community.members) {
      weight += result.workers[id].weight;
    }
    weight /= static_cast<double>(community.members.size());

    SubproblemOutcome sub;
    sub.workers = community.members;
    effort::EffortFit fit = result.class_fits.cm;
    if (metrics && !health.cancelled) {
      const std::vector<data::EffortSample> samples =
          effort::community_sum_samples(t, *metrics, community.members);
      if (samples.size() >= config.min_community_fit_samples) {
        try {
          fit = effort::fit_effort_function(samples, config.fit);
        } catch (Error& e) {
          if (policy.fit == StageMode::kFailFast) {
            e.with_stage("fit").with_worker(community.members.front());
            throw;
          }
          DegradationEvent ev;
          ev.stage = PipelineStage::kFit;
          ev.action = policy.fit;
          ev.code = e.code();
          ev.detail = e.message();
          ev.worker = community.members.front();
          ev.subproblem =
              static_cast<std::int64_t>(result.subproblems.size());
          health.events.push_back(std::move(ev));
          if (policy.fit == StageMode::kQuarantine) {
            sub.quarantined = true;
          } else {
            ++health.fit_fallbacks;  // keep the CM class fit
          }
        }
      }
    }
    sub.spec = make_spec(fit, config.requester.omega_malicious, weight);
    result.subproblems.push_back(std::move(sub));
  }
  fit_timer.stop();

  // ---- Strategy-specific solve (batched, cache-aware) --------------------
  // The contract strategies go through design_fleet. The fan-out reuses
  // the process-wide shared pool unless the caller pins an explicit thread
  // count.
  util::metrics::ScopedTimer solve_timer(stage_histogram("solve"),
                                         &result.timings.solve_s);
  // Per-community / per-distinct-spec solve spans for this run; snapshotted
  // into result.timings and rolled up into ccd.pipeline.solve_task_us.
  util::metrics::Histogram solve_spans;
  const std::size_t nsub = result.subproblems.size();
  util::ThreadPool* pool = &util::shared_pool();
  std::optional<util::ThreadPool> local_pool;
  if (config.threads != 0) {
    local_pool.emplace(config.threads);
    pool = &*local_pool;
  }

  const auto suspected_malicious = [&](const SubproblemOutcome& sub) {
    return sub.workers.size() > 1 ||
           result.workers[sub.workers.front()].detected_class !=
               DetectedClass::kHonest;
  };
  const auto fixed_design = [&](const contract::SubproblemSpec& spec) {
    const contract::FixedContractOutcome outcome =
        contract::fixed_threshold_baseline(spec, config.fixed_payment,
                                           config.fixed_threshold_effort);
    // Represent the outcome in DesignResult form for uniform reporting.
    contract::DesignResult design;
    design.response.effort = outcome.effort;
    design.response.feedback = outcome.feedback;
    design.response.compensation = outcome.compensation;
    design.response.utility = outcome.worker_utility;
    design.requester_utility = outcome.requester_utility;
    return design;
  };

  // The spec a subproblem is designed (or priced by the fallback) with:
  // the exclusion strategy zeroes suspected workers' weight, which the
  // designer answers with the zero contract.
  const auto solve_spec = [&](const SubproblemOutcome& sub) {
    contract::SubproblemSpec spec = sub.spec;
    if (config.strategy == PricingStrategy::kExcludeMalicious &&
        suspected_malicious(sub)) {
      spec.weight = 0.0;
    }
    return spec;
  };
  const auto record_solve_event = [&](std::size_t i, StageMode action,
                                      const Error& e, std::string detail) {
    DegradationEvent ev;
    ev.stage = PipelineStage::kSolve;
    ev.action = action;
    ev.code = e.code();
    ev.detail = std::move(detail);
    ev.worker = result.subproblems[i].workers.front();
    ev.subproblem = static_cast<std::int64_t>(i);
    health.events.push_back(std::move(ev));
  };

  // Which subproblems the solve actually finished; cancellation leaves
  // zeros behind and the post-pass below quarantines them.
  std::vector<std::uint8_t> task_done(nsub, 0);
  if (poll_cancel(PipelineStage::kSolve)) {
    // Cancelled before (or at) the solve boundary: no design work runs;
    // every live subproblem is quarantined by the post-pass.
  } else {
    // One solve call in every fault mode. Failures are collected per
    // subproblem — from the per-subproblem task check and from the design
    // call, which isolates them per worker — and handled afterwards in
    // index order by the stage's policy.
    std::vector<std::exception_ptr> failed(nsub);
    for (std::size_t i = 0; i < nsub; ++i) {
      if (result.subproblems[i].quarantined) continue;
      try {
        CCD_FAULT_POINT("pipeline.solve_task", i, Error);
      } catch (...) {
        failed[i] = std::current_exception();
      }
    }

    switch (config.strategy) {
      case PricingStrategy::kDynamicContract:
      case PricingStrategy::kExcludeMalicious: {
        // All workers of one detected class share the same weight-
        // independent spec: one k-sweep per distinct spec, then one
        // resolve pass per class. Quarantined and already-failed
        // subproblems get the zero-weight shortcut (no k-sweep, no fault
        // point).
        std::vector<contract::SubproblemSpec> specs(nsub);
        for (std::size_t i = 0; i < nsub; ++i) {
          const SubproblemOutcome& sub = result.subproblems[i];
          specs[i] = solve_spec(sub);
          if (sub.quarantined || failed[i] != nullptr) specs[i].weight = 0.0;
        }
        const contract::FleetSoA fleet = contract::FleetSoA::from_specs(specs);
        contract::FleetOptions options;
        options.pool = pool;
        options.sweep_histogram = &solve_spans;
        options.cancel = cancel;
        const contract::FleetDesignResult designed =
            contract::design_fleet(fleet, options, &result.design_cache);
        pool->parallel_for(nsub, [&](std::size_t i) {
          SubproblemOutcome& sub = result.subproblems[i];
          if (sub.quarantined || failed[i] != nullptr) return;
          if (designed.error[i] != nullptr) {
            failed[i] = designed.error[i];
          } else if (designed.resolved[i] != 0) {
            sub.design = designed.result_at(fleet, i);
            task_done[i] = 1;
          }
        });
        break;
      }
      case PricingStrategy::kFixedPayment: {
        pool->parallel_for(nsub, [&](std::size_t i) {
          SubproblemOutcome& sub = result.subproblems[i];
          if (sub.quarantined || failed[i] != nullptr) return;
          util::metrics::ScopedTimer span(&solve_spans);
          try {
            sub.design = fixed_design(sub.spec);
            task_done[i] = 1;
          } catch (...) {
            failed[i] = std::current_exception();
          }
        }, cancel);
        break;
      }
    }

    for (std::size_t i = 0; i < nsub; ++i) {
      if (failed[i] == nullptr) continue;
      SubproblemOutcome& sub = result.subproblems[i];
      try {
        std::rethrow_exception(failed[i]);
      } catch (Error& e) {
        if (policy.solve == StageMode::kFailFast) {
          e.with_stage("solve");
          throw;
        }
        record_solve_event(i, policy.solve, e, e.message());
      }
      if (policy.solve == StageMode::kFallback &&
          config.strategy != PricingStrategy::kFixedPayment) {
        try {
          sub.design = fixed_design(solve_spec(sub));
          sub.fallback = true;
          task_done[i] = 1;
          continue;
        } catch (const Error& e) {
          record_solve_event(i, StageMode::kQuarantine, e,
                             "fallback failed: " + e.message());
        }
      }
      sub.quarantined = true;
    }
    for (SubproblemOutcome& sub : result.subproblems) {
      if (sub.quarantined) sub.design = quarantined_design();
    }
  }

  // Cancellation post-pass: anything the solve stage did not finish gets
  // the quarantine treatment, so the reconciliation invariant holds and a
  // partial run is visibly partial. Runs once, whether the token latched
  // at an earlier boundary or mid-solve.
  if (health.cancelled || (cancel != nullptr && cancel->cancelled())) {
    std::size_t unsolved = 0;
    for (std::size_t i = 0; i < nsub; ++i) {
      SubproblemOutcome& sub = result.subproblems[i];
      if (task_done[i] != 0 || sub.quarantined) continue;
      sub.quarantined = true;
      sub.design = quarantined_design();
      ++unsolved;
    }
    health.unsolved_subproblems = unsolved;
    if (!health.cancelled) {
      // Latched mid-solve (between the boundary poll and the fan-out's
      // own checks): record the one summary event here.
      health.cancelled = true;
      health.cancel_reason = cancel->reason();
      DegradationEvent ev;
      ev.stage = PipelineStage::kSolve;
      ev.action = StageMode::kQuarantine;
      ev.code = ErrorCode::kDeadline;
      ev.detail = std::string("solve cancelled mid-stage (") +
                  util::to_string(health.cancel_reason) + "); " +
                  std::to_string(unsolved) +
                  " subproblem(s) quarantined unsolved";
      health.events.push_back(std::move(ev));
    }
    util::metrics::registry().counter("ccd.pipeline.cancelled").add(1);
  }
  solve_timer.stop();
  result.timings.solve_spans = solve_spans.snapshot();
  util::metrics::registry()
      .histogram("ccd.pipeline.solve_task_us")
      .merge(result.timings.solve_spans);

  // Parallel tasks record events in completion order; sort for stable,
  // reproducible reports.
  std::stable_sort(health.events.begin(), health.events.end(),
                   [](const DegradationEvent& a, const DegradationEvent& b) {
                     if (a.stage != b.stage) return a.stage < b.stage;
                     if (a.subproblem != b.subproblem) {
                       return a.subproblem < b.subproblem;
                     }
                     return a.worker < b.worker;
                   });

  // ---- Aggregation --------------------------------------------------------
  for (std::size_t i = 0; i < result.subproblems.size(); ++i) {
    const SubproblemOutcome& sub = result.subproblems[i];
    const double share = 1.0 / static_cast<double>(sub.workers.size());
    result.total_requester_utility += sub.design.requester_utility;
    result.total_compensation += sub.design.response.compensation;
    for (const data::WorkerId id : sub.workers) {
      WorkerOutcome& out = result.workers[id];
      out.subproblem = i;
      out.excluded = sub.design.excluded;
      out.quarantined = sub.quarantined;
      out.fallback = sub.fallback;
      out.requester_utility = sub.design.requester_utility * share;
      out.compensation = sub.design.response.compensation * share;
      out.effort = sub.design.response.effort * share;
      out.feedback = sub.design.response.feedback * share;
      if (out.excluded) ++result.excluded_workers;
      if (out.quarantined) ++health.quarantined_workers;
      if (out.fallback) ++health.fallback_workers;
    }
  }

  // Stopped explicitly: relying on the destructor would race NRVO (the
  // write could land after `result` is copied out on non-eliding paths).
  total_timer.stop();

  CCD_LOG_DEBUG << "pipeline: utility="
                << result.total_requester_utility
                << " compensation=" << result.total_compensation
                << " excluded=" << result.excluded_workers
                << " design-cache hits=" << result.design_cache.hits
                << "/" << result.design_cache.lookups;
  CCD_LOG_DEBUG << "pipeline: " << result.timings.to_string();
  if (health.degraded()) {
    CCD_LOG_INFO << "pipeline degraded: " << health.to_string();
  }
  return result;
}

}  // namespace ccd::core
