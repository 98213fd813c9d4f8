// perfbench — fixed-work benchmark of a served campaign round.
//
// Three workloads drive the unmodified ccd libraries through their public
// entry points and print the same six end-to-end metrics:
//
//   sim_serve       4 serve::Client connections over a Unix socket to an
//                   in-process serve::Engine + serve::Server (2 executors,
//                   no checkpoints); each connection runs 256-worker
//                   simulation campaigns, one kAdvance of one round per
//                   request, then kContracts and kClose.
//   ingest_durable  the same stack with checkpoint_dir on the checkout's
//                   filesystem and checkpoint_every=1; each connection runs
//                   64-worker ingest campaigns (refit_every=4, 320 rounds)
//                   fed by a seeded ground-truth fleet.
//   design_offline  one caller runs core::run_pipeline over eight
//                   GeneratorParams::medium() traces, saved with
//                   data::save_trace and loaded back during set-up.
//
// Work is fixed by (--workload, --seconds): the number of campaigns or
// pipeline runs is --seconds times a per-workload constant, so the same
// arguments always deliver the same worker-rounds, whatever the host speed.
// Inputs come only from --seed. Every run checks the program's outputs
// (bitwise against a reference computed outside the timed phase) and exits
// 1 when a check fails. --trace 1 runs the workload again with spans around
// each layer call and prints the per-layer metrics instead.
//
// Usage (from the repository root, after building with run.py):
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--corrupt-digest] [--force]
//             [--commit SHA] [--source-digest HEX]
//
// Scratch files (sockets, checkpoints, traces) live under
// .bench_build/work/<workload>-<pid> and are removed at exit; a traced run
// leaves its spans in .bench_build/work/spans-<workload>.jsonl.
//
// Exit codes: 0 ok, 1 failed correctness check or error, 2 bad usage,
// 3 library not built as Release (pass --force to measure anyway).
#include <sys/stat.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "contract/bounds.hpp"
#include "contract/design_cache.hpp"
#include "contract/fleet_soa.hpp"
#include "contract/worker_response.hpp"
#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "core/requester.hpp"
#include "core/stackelberg.hpp"
#include "data/generator.hpp"
#include "data/loader.hpp"
#include "effort/fitting.hpp"
#include "harness.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/wire.hpp"

#ifndef CCD_BUILD_TYPE
#define CCD_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace contract = ccd::contract;
namespace core = ccd::core;
namespace data = ccd::data;
namespace effort = ccd::effort;
namespace serve = ccd::serve;
namespace util = ccd::util;

constexpr const char* kWorkRoot = ".bench_build/work";

// Fixed work of one run: `blocks` timed blocks of identical size, each on
// a fresh set-up (serve: engine, server, connects and one warm-up campaign
// per connection; design_offline: loading the eight traces). Host
// interference (CPU stolen by other guests of a shared machine) only ever
// slows a block: a block during which much was stolen is measured again
// (StealGate), and goodput, round latencies and CPU per worker-round are
// read at the better quartile over blocks; setup_s is the median set-up.
// A block holds at least 250 rounds (ten samples beyond its p95). Block
// counts scale with --seconds; the defaults below are sized on a 4-core
// x86-64 host.
struct Sizing {
  std::size_t blocks = 3;
  std::size_t per_block = 1;  ///< campaigns per connection, or pipeline runs
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_digest = false;
  bool force = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// What one invocation prints: the last-line JSON plus report lines.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  std::vector<std::string> report;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, value, unit);
  }
  void fail(const std::string& what) { failures.push_back(what); }
  void note(const std::string& line) { report.push_back(line); }
  bool correct() const { return failures.empty(); }
};

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

Sizing sizing(const Args& args) {
  Sizing z;
  double blocks_per_second = 1.0;
  if (args.workload == "sim_serve") {
    z.per_block = args.tiny ? 1 : 3;  // x 4 connections x 100 rounds
  } else if (args.workload == "ingest_durable") {
    z.per_block = 1;  // x 4 connections x 320 rounds
    blocks_per_second = 0.6;
  } else {
    z.per_block = args.tiny ? 16 : 250;
    blocks_per_second = 1.6;
  }
  if (!args.tiny) {
    z.blocks = std::max<std::size_t>(
        3, static_cast<std::size_t>(std::llround(args.seconds * blocks_per_second)));
  }
  // A traced run has three untraced blocks (the median goodput is the base
  // of trace.overhead_ratio) and one traced block; per-layer figures only.
  if (args.trace) z.blocks = 3;
  return z;
}

/// Independent deterministic stream for one (seed, purpose) pair.
util::Rng stream(std::uint64_t seed, std::uint64_t salt) {
  return util::Rng(seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL +
                   1);
}

std::string encode_contracts(const std::vector<contract::Contract>& contracts) {
  util::wire::Writer w;
  w.u64(contracts.size());
  for (const contract::Contract& c : contracts) core::encode_contract(w, c);
  return w.take();
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Word-at-a-time digest of bit patterns (cheap enough to run after every
/// timed pipeline call).
class WordDigest {
 public:
  void add(std::uint64_t word) {
    h_ = (h_ ^ word) * 0x100000001B3ULL;
    h_ ^= h_ >> 29;
  }
  void add(double v) { add(double_bits(v)); }
  void add(const contract::Contract& c) {
    if (c.is_zero()) return add(std::uint64_t{0});
    const std::size_t knots = c.intervals() + 1;
    add(std::uint64_t{knots});
    add(c.delta());
    for (std::size_t l = 0; l < knots; ++l) {
      add(c.knot(l));
      add(c.payment(l));
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// --- end-to-end figures shared by all workloads -----------------------------

/// Timed-phase totals from which the six end-to-end metrics derive.
struct PhaseStats {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t worker_rounds = 0;  ///< delivered with status kOk
  std::uint64_t rounds = 0;
  std::uint64_t redesigns = 0;
  std::vector<double> round_us;
  std::vector<std::string> errors;
  double steal_share = -1.0;  ///< see StealMeter; -1 when not reported

  double goodput() const {
    return wall_s > 0.0 ? static_cast<double>(worker_rounds) / wall_s : 0.0;
  }
};

/// Fold a phase's operation counts and errors into the result.
void account(const PhaseStats& phase, Result& result) {
  result.attempted += phase.attempted;
  result.failed += phase.failed;
  for (const std::string& e : phase.errors) result.fail(e);
}

/// A block during which the hypervisor stole more than this share of the
/// machine's CPU is measured again (see StealGate).
constexpr double kMaxStealShare = 0.02;
/// Seconds a run may spend on blocks it measures again.
constexpr double kRemeasureBudgetS = 20.0;

/// Re-measures blocks that the host disturbed. Such a block is set aside;
/// after a one-second pause, so that a burst of stolen time can pass, it
/// runs again on the same inputs. Set-aside blocks and pauses may take
/// about `budget_s` seconds of a run; after that, blocks are kept as they
/// come. A set-aside block's calls still count as attempted (and failed),
/// but not in the figures.
class StealGate {
 public:
  explicit StealGate(double budget_s) : budget_s_(budget_s) {}

  /// True when `block` must be measured again; `attempt_s` is what its
  /// set-up and measurement took.
  bool redo(const PhaseStats& block, double attempt_s, const std::string& name,
            Result& result) {
    if (block.steal_share <= kMaxStealShare || spent_s_ >= budget_s_) return false;
    account(block, result);
    result.note(fmt("re-measuring %s: the host stole %.4f of the CPU during it",
                    name.c_str(), block.steal_share));
    std::this_thread::sleep_for(std::chrono::seconds(1));
    spent_s_ += attempt_s + 1.0;
    return true;
  }

 private:
  double budget_s_;
  double spent_s_ = 0.0;
};

/// Value at the better quartile of per-block figures: the lower quartile
/// when lower is better, the upper one otherwise.
double better_quartile(const std::vector<double>& values, bool lower_is_better) {
  return quantile(values, lower_is_better ? 0.25 : 0.75);
}

/// `first_rss_mb` is the peak resident set at the end of the run's first
/// block: set-up plus one block is the same work on every run, whereas the
/// high-water mark at the end grows with each block measured again.
void report_end_to_end(const std::vector<PhaseStats>& blocks,
                       const std::vector<double>& setups_s, double first_rss_mb,
                       Result& result) {
  std::vector<double> goodput, p50, p95, cpu;
  for (const PhaseStats& b : blocks) {
    account(b, result);
    const std::size_t n = b.round_us.size();
    goodput.push_back(b.goodput());
    p50.push_back(quantile(b.round_us, 0.50) / 1000.0);
    p95.push_back(quantile(b.round_us, 0.95) / 1000.0);
    cpu.push_back(b.worker_rounds > 0
                      ? b.cpu_s * 1e6 / static_cast<double>(b.worker_rounds)
                      : 0.0);
    result.note(fmt("block: %.3f s wall, %.3f s cpu, %" PRIu64
                    " worker-rounds in %zu rounds (%zu samples beyond p95), "
                    "%" PRIu64 " redesigns; goodput %.0f/s p50 %.4f ms "
                    "p95 %.4f ms p99 %.4f ms; steal %.4f",
                    b.wall_s, b.cpu_s, b.worker_rounds, n,
                    n - static_cast<std::size_t>(0.95 * static_cast<double>(n)),
                    b.redesigns, goodput.back(), p50.back(), p95.back(),
                    quantile(b.round_us, 0.99) / 1000.0, b.steal_share));
  }
  result.metric("goodput_wr_s", better_quartile(goodput, false), "1/s");
  result.metric("round_p50_ms", better_quartile(p50, true), "ms");
  result.metric("round_p95_ms", better_quartile(p95, true), "ms");
  result.metric("cpu_us_per_wr", better_quartile(cpu, true), "us");
  result.metric("setup_s", median(setups_s), "s");
  result.metric("peak_rss_mb", first_rss_mb, "MiB");
  std::string setups = "setups_s:";
  for (double s : setups_s) setups += fmt(" %.6f", s);
  result.note(setups);
}

// --- served campaigns (sim_serve, ingest_durable) ----------------------------

struct ServeShape {
  bool ingest = false;
  std::size_t connections = 4;
  std::size_t executors = 2;
  std::size_t queue = 16;
  std::uint64_t workers = 0;
  std::uint64_t malicious = 0;
  std::uint64_t rounds = 0;
  std::uint64_t refit_every = 4;
};

ServeShape serve_shape(const Args& args) {
  ServeShape s;
  s.ingest = args.workload == "ingest_durable";
  if (s.ingest) {
    s.workers = args.tiny ? 8 : 64;
    s.rounds = args.tiny ? 24 : 320;
  } else {
    s.workers = args.tiny ? 32 : 256;
    s.malicious = args.tiny ? 4 : 32;
    s.rounds = args.tiny ? 12 : 100;
  }
  return s;
}

serve::OpenParams open_params(const ServeShape& s, std::uint64_t seed) {
  serve::OpenParams p;
  p.mode = s.ingest ? serve::SessionMode::kIngest : serve::SessionMode::kSimulation;
  p.rounds = s.rounds;
  p.workers = s.workers;
  p.malicious = s.malicious;
  p.seed = seed;
  p.refit_every = s.refit_every;
  return p;
}

core::SimConfig sim_config(const ServeShape& s, std::uint64_t seed) {
  // Mirrors how serve::Session builds its simulator from OpenParams.
  const serve::OpenParams p = open_params(s, seed);
  core::SimConfig config;
  config.rounds = p.rounds;
  config.seed = p.seed;
  config.requester.mu = p.mu;
  config.ema_alpha = p.ema_alpha;
  config.policy.kind = p.policy;
  return config;
}

struct Campaign {
  std::string id;
  std::uint32_t index = 0;  ///< unique within the run (span key)
  std::uint64_t seed = 0;
  /// Ingest only: observations[round][worker].
  std::vector<std::vector<serve::IngestObservation>> observations;
};

/// Campaigns per connection: plan[connection][k].
using Plan = std::vector<std::vector<Campaign>>;

/// Seeded ground-truth fleet for ingest campaigns: every worker has its own
/// concave psi, one in eight is malicious with a large accuracy deviation.
std::vector<std::vector<serve::IngestObservation>> ground_truth_rounds(
    const ServeShape& s, util::Rng& rng) {
  struct Truth {
    effort::QuadraticEffort psi{-1.0, 8.0, 2.0};
    double accuracy = 0.3;
    double effort_log_mean = 0.8;
  };
  std::vector<Truth> fleet(s.workers);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const double r2 = -rng.uniform(0.6, 1.4);
    const double r1 = rng.uniform(6.0, 10.0);
    const double r0 = rng.uniform(1.0, 3.0);
    fleet[i].psi = effort::QuadraticEffort(r2, r1, r0);
    fleet[i].accuracy =
        i % 8 == 7 ? rng.uniform(1.5, 2.0) : rng.uniform(0.2, 0.5);
    fleet[i].effort_log_mean = rng.uniform(0.4, 1.1);
  }
  std::vector<std::vector<serve::IngestObservation>> rounds(s.rounds);
  for (auto& round : rounds) {
    round.resize(s.workers);
    for (std::size_t i = 0; i < s.workers; ++i) {
      const Truth& t = fleet[i];
      serve::IngestObservation& obs = round[i];
      obs.effort = rng.lognormal(t.effort_log_mean, 0.35);
      obs.feedback = std::max(0.0, t.psi(obs.effort) + rng.normal(0.0, 0.5));
      obs.accuracy_sample = std::max(0.0, t.accuracy + rng.normal(0.0, 0.15));
    }
  }
  return rounds;
}

Plan make_plan(const ServeShape& s, std::uint64_t seed, std::uint64_t salt,
               const std::string& prefix, std::size_t per_connection,
               std::uint32_t& next_index) {
  util::Rng rng = stream(seed, salt);
  Plan plan(s.connections);
  for (std::size_t k = 0; k < per_connection; ++k) {
    for (std::size_t conn = 0; conn < s.connections; ++conn) {
      Campaign c;
      c.index = next_index++;
      c.id = fmt("%s-c%zu-k%zu", prefix.c_str(), conn, k);
      c.seed = rng.next_u64() >> 1;
      if (s.ingest) c.observations = ground_truth_rounds(s, rng);
      plan[conn].push_back(std::move(c));
    }
  }
  return plan;
}

/// Engine + Unix-socket server + one client per connection. Members are
/// destroyed clients first, then server, then engine.
struct Stack {
  std::unique_ptr<serve::Engine> engine;
  std::unique_ptr<serve::Server> server;
  std::vector<serve::Client> clients;
  std::vector<std::uint64_t> next_request_id;
  std::string checkpoint_dir;
};

serve::EngineConfig engine_config(const ServeShape& s, const std::string& dir) {
  serve::EngineConfig config;
  config.worker_threads = s.executors;
  config.queue_capacity = s.queue;
  config.checkpoint_dir = dir;
  config.checkpoint_every = 1;
  return config;
}

std::unique_ptr<Stack> start_stack(const ServeShape& s,
                                   const std::string& socket_path,
                                   const std::string& checkpoint_dir) {
  auto stack = std::make_unique<Stack>();
  stack->checkpoint_dir = checkpoint_dir;
  if (!checkpoint_dir.empty()) std::filesystem::create_directories(checkpoint_dir);
  stack->engine =
      std::make_unique<serve::Engine>(engine_config(s, checkpoint_dir));
  serve::ServerConfig server;
  server.unix_socket = socket_path;
  stack->server = std::make_unique<serve::Server>(server, *stack->engine);
  serve::ClientOptions options;
  options.max_reconnects = 0;  // a redial would re-send a round
  options.io_timeout_ms = 60'000;
  for (std::size_t i = 0; i < s.connections; ++i) {
    stack->clients.push_back(serve::Client::connect_unix(socket_path, options));
    stack->next_request_id.push_back(1);
  }
  return stack;
}

struct CampaignOutcome {
  bool complete = false;
  /// Digest of encode_contracts() of the final posted contracts (only the
  /// digest is kept, so retained outcomes do not inflate peak RSS).
  std::uint64_t contracts_digest = 0;
  double utility = 0.0;
  std::string checkpoint;  ///< ingest: the last checkpoint frame
  std::vector<std::uint64_t> client_spans;  ///< traced: span id per round
};

using Outcomes = std::vector<std::vector<CampaignOutcome>>;

serve::Response tally_call(Stack& stack, std::size_t conn, serve::Request& req,
                           const std::string& campaign, PhaseStats& t) {
  req.request_id = stack.next_request_id[conn]++;
  serve::Response resp = stack.clients[conn].call(req);
  ++t.attempted;
  if (resp.status != serve::Status::kOk) {
    ++t.failed;
    t.errors.push_back(fmt("campaign %s: %s returned %s: %s", campaign.c_str(),
                           serve::to_string(req.op),
                           serve::to_string(resp.status),
                           resp.message.c_str()));
  }
  return resp;
}

void run_campaign(Stack& stack, std::size_t conn, const ServeShape& s,
                  const Campaign& c, PhaseStats& t, CampaignOutcome& out,
                  SpanLog* log) {
  serve::Request open;
  open.op = serve::Op::kOpen;
  open.session = c.id;
  open.open = open_params(s, c.seed);
  if (tally_call(stack, conn, open, c.id, t).status != serve::Status::kOk) return;

  bool all_ok = true;
  for (std::uint64_t r = 0; r < s.rounds; ++r) {
    serve::Request req;
    req.session = c.id;
    if (s.ingest) {
      req.op = serve::Op::kIngest;
      req.observations = c.observations[r];
    } else {
      req.op = serve::Op::kAdvance;
      req.advance_rounds = 1;
    }
    req.request_id = stack.next_request_id[conn]++;
    const double t0 = now_us();
    const serve::Response resp = stack.clients[conn].call(req);
    const double t1 = now_us();
    ++t.attempted;
    ++t.rounds;
    t.round_us.push_back(t1 - t0);
    if (log != nullptr) {
      out.client_spans.push_back(log->add("client.call", t0, t1, 0, c.index,
                                          static_cast<std::uint32_t>(r)));
    }
    if (resp.status != serve::Status::kOk || resp.session.next_round != r + 1) {
      ++t.failed;
      all_ok = false;
      t.errors.push_back(fmt("campaign %s round %" PRIu64 ": %s %s", c.id.c_str(),
                             r, serve::to_string(resp.status),
                             resp.message.c_str()));
      break;
    }
    t.worker_rounds += s.workers;
    if (!s.ingest || resp.redesigned) ++t.redesigns;
  }

  serve::Request fetch;
  fetch.op = serve::Op::kContracts;
  fetch.session = c.id;
  const serve::Response contracts = tally_call(stack, conn, fetch, c.id, t);
  out.contracts_digest = digest(encode_contracts(contracts.contracts));
  out.utility = contracts.session.cumulative_requester_utility;
  if (s.ingest) {
    out.checkpoint = util::read_file(
        stack.checkpoint_dir + "/" + c.id +
        serve::Session::checkpoint_suffix(serve::SessionMode::kIngest));
  }
  serve::Request close;
  close.op = serve::Op::kClose;
  close.session = c.id;
  const bool closed =
      tally_call(stack, conn, close, c.id, t).status == serve::Status::kOk;
  out.complete = all_ok && contracts.status == serve::Status::kOk && closed;
}

/// Run every connection's campaigns concurrently; wall and CPU time span
/// the release of the connection threads to the last join.
PhaseStats run_phase(Stack& stack, const ServeShape& s, const Plan& plan,
                     Outcomes& outcomes, std::vector<SpanLog>* logs) {
  outcomes.assign(plan.size(), {});
  std::vector<PhaseStats> tallies(plan.size());
  std::latch ready(static_cast<std::ptrdiff_t>(plan.size()));
  std::latch go(1);
  std::vector<std::thread> threads;
  for (std::size_t conn = 0; conn < plan.size(); ++conn) {
    outcomes[conn].resize(plan[conn].size());
    threads.emplace_back([&, conn] {
      ready.count_down();
      go.wait();
      SpanLog* log = logs != nullptr ? &(*logs)[conn] : nullptr;
      try {
        for (std::size_t k = 0; k < plan[conn].size(); ++k) {
          run_campaign(stack, conn, s, plan[conn][k], tallies[conn],
                       outcomes[conn][k], log);
        }
      } catch (const std::exception& e) {
        ++tallies[conn].failed;
        tallies[conn].errors.push_back(
            fmt("connection %zu: %s", conn, e.what()));
      }
    });
  }
  ready.wait();
  PhaseStats total;
  const StealMeter steal;
  const double cpu0 = process_cpu_s();
  const double t0 = now_us();
  go.count_down();
  for (std::thread& th : threads) th.join();
  total.wall_s = (now_us() - t0) / 1e6;
  total.cpu_s = process_cpu_s() - cpu0;
  total.steal_share = steal.share();
  total.peak_rss_mb = peak_rss_mb();
  for (PhaseStats& t : tallies) {
    total.attempted += t.attempted;
    total.failed += t.failed;
    total.worker_rounds += t.worker_rounds;
    total.rounds += t.rounds;
    total.redesigns += t.redesigns;
    total.round_us.insert(total.round_us.end(), t.round_us.begin(),
                          t.round_us.end());
    total.errors.insert(total.errors.end(), t.errors.begin(), t.errors.end());
  }
  return total;
}

/// Run `work` for each index in [0, n) on up to four threads.
void parallel_each(std::size_t n, const std::function<void(std::size_t)>& work) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < std::min<std::size_t>(4, n); ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) work(i);
    });
  }
  for (std::thread& th : threads) th.join();
}

/// Bitwise checks of every campaign against a reference computed outside
/// the timed phase. --corrupt-digest flips one bit of the first campaign's
/// served digest, which the check must report.
void verify_campaigns(const ServeShape& s, const Plan& plan,
                      const Outcomes& outcomes, bool corrupt,
                      const std::string& scratch_dir, Result& result) {
  std::vector<std::pair<const Campaign*, const CampaignOutcome*>> all;
  for (std::size_t conn = 0; conn < plan.size(); ++conn) {
    for (std::size_t k = 0; k < plan[conn].size(); ++k) {
      all.emplace_back(&plan[conn][k], &outcomes[conn][k]);
    }
  }
  std::mutex mutex;
  std::vector<std::string> failures;
  parallel_each(all.size(), [&](std::size_t i) {
    const Campaign& c = *all[i].first;
    const CampaignOutcome& out = *all[i].second;
    auto fail = [&](const std::string& what) {
      std::lock_guard<std::mutex> lock(mutex);
      failures.push_back("campaign " + c.id + ": " + what);
    };
    if (!out.complete) return fail("did not complete");
    std::uint64_t served = out.contracts_digest;
    if (corrupt && i == 0) served ^= 1;
    try {
      if (!s.ingest) {
        core::StackelbergSimulator sim(core::preset_fleet(s.workers, s.malicious),
                                       sim_config(s, c.seed));
        const core::SimResult run = sim.run();
        const std::string reference = encode_contracts(sim.contracts());
        if (served != digest(reference)) {
          fail(fmt("final contracts digest %s != StackelbergSimulator::run %s",
                   hex64(served).c_str(), hex64(digest(reference)).c_str()));
        }
        if (double_bits(out.utility) !=
            double_bits(run.cumulative_requester_utility)) {
          fail(fmt("cumulative utility %.17g != StackelbergSimulator::run %.17g",
                   out.utility, run.cumulative_requester_utility));
        }
        return;
      }
      serve::Session bare(c.id, open_params(s, c.seed), serve::Session::Env{});
      for (const auto& round : c.observations) bare.ingest(round, nullptr);
      const std::string reference = encode_contracts(bare.contracts());
      if (served != digest(reference)) {
        fail(fmt("final contracts digest %s != bare Session %s",
                 hex64(served).c_str(), hex64(digest(reference)).c_str()));
      }
      const std::string path =
          scratch_dir + "/" + c.id +
          serve::Session::checkpoint_suffix(serve::SessionMode::kIngest);
      util::atomic_write_file(path, out.checkpoint);
      const auto restored =
          serve::Session::restore(c.id, path, serve::Session::Env{});
      if (encode_contracts(restored->contracts()) != reference) {
        fail("last checkpoint restores to different contracts");
      }
      std::filesystem::remove(path);
    } catch (const std::exception& e) {
      fail(std::string("reference threw: ") + e.what());
    }
  });
  std::sort(failures.begin(), failures.end());
  for (const std::string& f : failures) result.fail(f);
  result.note(fmt("verified %zu campaigns bitwise against %s", all.size(),
                  s.ingest ? "a bare serve::Session (+ checkpoint restore)"
                           : "core::StackelbergSimulator::run"));
}

// --- traced replay of served campaigns ----------------------------------------

/// The ingest session's requester state, re-derived by the benchmark from
/// the same observations, so fits and design batches can be timed on a
/// replica whose outputs must equal the session's.
struct IngestReplica {
  core::RequesterConfig requester;
  double ema_alpha = 0.3;
  std::vector<double> est_accuracy;
  std::vector<double> est_malicious;
  std::vector<effort::QuadraticEffort> psi;
  std::vector<std::vector<data::EffortSample>> samples;
  std::uint64_t round = 0;

  explicit IngestReplica(std::size_t n)
      : est_accuracy(n, core::RequesterConfig{}.accuracy_floor),
        est_malicious(n, 0.05),
        psi(n, effort::QuadraticEffort(-1.0, 8.0, 2.0)),
        samples(n) {}

  void observe(const std::vector<serve::IngestObservation>& observations) {
    for (std::size_t i = 0; i < observations.size(); ++i) {
      const serve::IngestObservation& obs = observations[i];
      data::EffortSample sample;
      sample.worker = static_cast<data::WorkerId>(i);
      sample.review = static_cast<data::ReviewId>(round);
      sample.effort = obs.effort;
      sample.feedback = obs.feedback;
      samples[i].push_back(sample);
      if (samples[i].size() > 256) samples[i].erase(samples[i].begin());
      est_accuracy[i] = (1.0 - ema_alpha) * est_accuracy[i] +
                        ema_alpha * obs.accuracy_sample;
      const double signal =
          1.0 / (1.0 + std::exp(-4.0 * (obs.accuracy_sample - 0.9)));
      est_malicious[i] =
          (1.0 - ema_alpha) * est_malicious[i] + ema_alpha * signal;
    }
    round += 1;
  }

  /// Returns how many workers were fitted.
  std::size_t refit() {
    std::size_t fitted = 0;
    for (std::size_t i = 0; i < psi.size(); ++i) {
      if (samples[i].size() < 3) continue;
      ++fitted;
      try {
        psi[i] = effort::fit_effort_function(samples[i]).model;
      } catch (const ccd::Error&) {
      }
    }
    return fitted;
  }

  std::vector<contract::SubproblemSpec> specs() const {
    std::vector<contract::SubproblemSpec> out(psi.size());
    for (std::size_t i = 0; i < psi.size(); ++i) {
      out[i].psi = psi[i];
      out[i].incentives.beta = requester.beta;
      out[i].incentives.omega =
          est_malicious[i] >= 0.5 ? requester.omega_malicious : 0.0;
      out[i].weight = core::feedback_weight(requester, est_accuracy[i],
                                            est_malicious[i], 0);
      out[i].mu = requester.mu;
      out[i].intervals = requester.intervals;
    }
    return out;
  }
};

/// The simulator's BiP redesign specs at the start of the next round.
std::vector<contract::SubproblemSpec> sim_specs(
    const std::vector<core::SimWorkerSpec>& fleet, const core::SimConfig& config,
    const core::SimCheckpoint& state) {
  std::vector<contract::SubproblemSpec> specs(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    specs[i].psi = fleet[i].psi;
    specs[i].incentives.beta = fleet[i].beta;
    specs[i].incentives.omega =
        state.est_malicious[i] >= config.suspicion_threshold
            ? config.requester.omega_malicious
            : 0.0;
    specs[i].weight = core::feedback_weight(
        config.requester, state.est_accuracy[i], state.est_malicious[i],
        fleet[i].partners);
    specs[i].mu = config.requester.mu;
    specs[i].intervals = config.requester.intervals;
  }
  return specs;
}

struct ReplayTally {
  std::vector<double> request_bytes;
  std::vector<double> response_bytes;
  std::vector<double> checkpoint_bytes;
  std::vector<double> checkpoint_encode_us;
  std::size_t fitted_workers = 0;
  std::size_t best_responses = 0;
  std::vector<std::string> errors;
};

/// Replay one campaign of the traced phase layer by layer: the same
/// requests through a second in-process Engine (Engine::call), the protocol
/// codecs, a bare Session under its lock, and replicas of the design batch,
/// fits and best responses. Spans hang under the traced phase's
/// client.call span of the same round. The bare session and the ingest
/// replica design through a per-call cache: every fitted psi is distinct,
/// so each worker misses exactly as in the engine-wide cache, while memory
/// stays bounded.
void replay_campaign(const ServeShape& s, const Campaign& c,
                     const CampaignOutcome& traced, serve::Engine& engine,
                     const std::string& session_dir, SpanLog& log,
                     ReplayTally& tally) {
  auto fail = [&](const std::string& what) {
    tally.errors.push_back("replay of campaign " + c.id + ": " + what);
  };
  std::uint64_t request_id = 1;
  serve::Request open;
  open.op = serve::Op::kOpen;
  open.session = c.id;
  open.open = open_params(s, c.seed);
  open.request_id = request_id++;
  if (engine.call(open).status != serve::Status::kOk) return fail("open failed");

  serve::Session::Env env;
  env.checkpoint_dir = s.ingest ? session_dir : "";
  env.checkpoint_every = 1;
  serve::Session session(c.id, open_params(s, c.seed), env);

  const core::SimConfig config = sim_config(s, c.seed);
  const std::vector<core::SimWorkerSpec> fleet =
      core::preset_fleet(s.workers, s.malicious);
  std::unique_ptr<core::StackelbergSimulator> sim;
  contract::DesignCache sim_cache;  // mirrors the simulator's own cache
  if (!s.ingest) sim = std::make_unique<core::StackelbergSimulator>(fleet, config);
  IngestReplica ingest(s.workers);
  const std::string probe_path =
      session_dir + "/probe-" + std::to_string(c.index) + ".bin";

  const std::uint32_t ci = c.index;
  for (std::uint64_t r = 0; r < s.rounds && r < traced.client_spans.size(); ++r) {
    const auto ri = static_cast<std::uint32_t>(r);
    const std::uint64_t client_span = traced.client_spans[r];
    serve::Request req;
    req.session = c.id;
    req.request_id = request_id++;
    if (s.ingest) {
      req.op = serve::Op::kIngest;
      req.observations = c.observations[r];
    } else {
      req.op = serve::Op::kAdvance;
    }

    const std::uint64_t engine_span = log.reserve();
    double t0 = now_us();
    const serve::Response resp = engine.call(req);
    double t1 = now_us();
    log.add("engine.call", t0, t1, client_span, ci, ri, engine_span);
    if (resp.status != serve::Status::kOk) return fail("engine call failed");

    t0 = now_us();
    const std::string req_bytes = serve::encode_request(req);
    const serve::Request req_back = serve::decode_request(req_bytes);
    const std::string resp_bytes = serve::encode_response(resp);
    const serve::Response resp_back = serve::decode_response(resp_bytes);
    t1 = now_us();
    log.add("wire.codec", t0, t1, client_span, ci, ri);
    if (req_back.request_id != req.request_id ||
        resp_back.request_id != resp.request_id) {
      return fail("codec round trip changed the request id");
    }
    tally.request_bytes.push_back(
        static_cast<double>(req_bytes.size() + util::wire::kFrameHeaderSize));
    tally.response_bytes.push_back(
        static_cast<double>(resp_bytes.size() + util::wire::kFrameHeaderSize));

    std::vector<contract::SubproblemSpec> specs;
    if (!s.ingest) specs = sim_specs(fleet, config, sim->snapshot());

    const std::uint64_t session_span = log.reserve();
    bool redesigned = false;
    {
      std::lock_guard<std::mutex> lock(session.mutex());
      t0 = now_us();
      if (s.ingest) {
        redesigned = session.ingest(req.observations, nullptr);
      } else {
        session.advance(1, nullptr);
      }
      t1 = now_us();
    }
    const char* session_name = !s.ingest     ? "session.advance"
                               : redesigned ? "session.redesign"
                                            : "session.ingest";
    log.add(session_name, t0, t1, engine_span, ci, ri, session_span);
    const std::vector<contract::Contract> posted = session.contracts();

    contract::BatchOptions options;
    options.kernel = contract::SweepKernel::kScalar;
    if (s.ingest) {
      ingest.observe(req.observations);
      if (ingest.round % s.refit_every == 0) {
        t0 = now_us();
        tally.fitted_workers += ingest.refit();
        t1 = now_us();
        log.add("fit.effort", t0, t1, session_span, ci, ri);
        specs = ingest.specs();
      }
    } else {
      options.cache = &sim_cache;
    }
    if (!specs.empty()) {
      t0 = now_us();
      const std::vector<contract::DesignResult> designs =
          contract::design_contracts_batch(specs, options);
      t1 = now_us();
      log.add("design.batch", t0, t1, session_span, ci, ri);
      std::vector<contract::Contract> replica;
      for (const contract::DesignResult& d : designs) replica.push_back(d.contract);
      if (encode_contracts(replica) != encode_contracts(posted)) {
        return fail(fmt("round %" PRIu64 ": replica design != session contracts", r));
      }
    }

    if (!s.ingest) {
      std::vector<contract::BestResponse> responses(fleet.size());
      t0 = now_us();
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        const core::SimWorkerSpec::Behaviour b = fleet[i].behaviour_at(r);
        responses[i] = contract::best_response(
            posted[i], fleet[i].psi, contract::WorkerIncentives{fleet[i].beta, b.omega});
      }
      t1 = now_us();
      log.add("sim.best_response", t0, t1, session_span, ci, ri);
      tally.best_responses += fleet.size();
      sim->step(1);
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        if (double_bits(responses[i].effort) !=
            double_bits(sim->history().worker_history[i][r].effort)) {
          return fail(fmt("round %" PRIu64 ": replica best response of worker %zu "
                          "differs from the simulator's",
                          r, i));
        }
      }
    } else if (r % 4 == 0) {
      // Checkpoint probes on every fourth round only: each adds two fsyncs
      // that the served round does not pay, and would crowd the disk.
      const std::uint64_t ckpt_span = log.reserve();
      t0 = now_us();
      session.checkpoint();
      t1 = now_us();
      log.add("checkpoint.total", t0, t1, session_span, ci, ri, ckpt_span);
      struct stat st {};
      ::stat(session.checkpoint_path().c_str(), &st);
      const std::string payload(static_cast<std::size_t>(st.st_size), 'x');
      const double w0 = now_us();
      util::atomic_write_file(probe_path, payload);
      const double w1 = now_us();
      log.add("checkpoint.write", w0, w1, ckpt_span, ci, ri);
      tally.checkpoint_bytes.push_back(static_cast<double>(st.st_size));
      tally.checkpoint_encode_us.push_back(std::max(0.0, (t1 - t0) - (w1 - w0)));
    }
  }
  std::filesystem::remove(probe_path);

  serve::Request fetch;
  fetch.op = serve::Op::kContracts;
  fetch.session = c.id;
  fetch.request_id = request_id++;
  const serve::Response final_contracts = engine.call(fetch);
  if (digest(encode_contracts(final_contracts.contracts)) !=
          traced.contracts_digest ||
      digest(encode_contracts(session.contracts())) != traced.contracts_digest) {
    fail("replayed contracts differ from the served campaign");
  }
  serve::Request close;
  close.op = serve::Op::kClose;
  close.session = c.id;
  close.request_id = request_id++;
  engine.call(close);
  session.remove_checkpoint();
}

/// Total span time per layer over the replayed rounds; `client` sums the
/// traced client.call span that each replayed engine.call hangs under.
/// Checkpoints are probed on a sample of rounds and scaled to all of them.
struct Attribution {
  double client = 0, engine = 0, session = 0, codec = 0, design = 0, fit = 0,
         checkpoint = 0, sim = 0;
};

Attribution attribute(const std::vector<Span>& spans) {
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  Attribution a;
  std::size_t rounds = 0, probed = 0;
  for (const Span& s : spans) {
    const std::string name = s.name;
    if (name == "engine.call") {
      ++rounds;
      a.engine += s.us();
      a.client += by_id.at(s.parent)->us();
    } else if (name == "wire.codec") {
      a.codec += s.us();
    } else if (name.rfind("session.", 0) == 0) {
      a.session += s.us();
    } else if (name == "design.batch") {
      a.design += s.us();
    } else if (name == "fit.effort") {
      a.fit += s.us();
    } else if (name == "checkpoint.total") {
      ++probed;
      a.checkpoint += s.us();
    } else if (name == "sim.best_response") {
      a.sim += s.us();
    }
  }
  if (probed > 0) a.checkpoint *= static_cast<double>(rounds) / probed;
  return a;
}

void report_layers(Result& result, const std::map<std::string, double>& values) {
  static const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
      {"wire.codec_us_p50", "us"},          {"wire.request_bytes_p50", "B"},
      {"wire.response_bytes_p50", "B"},     {"wire.share", "ratio"},
      {"engine.queue_wait_us_p50", "us"},   {"engine.queue_wait_us_p99", "us"},
      {"engine.share", "ratio"},            {"session.advance_us_p50", "us"},
      {"session.ingest_us_p50", "us"},      {"session.redesign_us_p50", "us"},
      {"sim.response_us_per_worker", "us"}, {"design.batch_us_p50", "us"},
      {"design.cache_hit_ratio", "ratio"},  {"design.sweeps_per_redesign", "count"},
      {"design.cache_tables_added", "count"}, {"fit.us_per_worker", "us"},
      {"checkpoint.bytes_p50", "B"},        {"checkpoint.write_us_p50", "us"},
      {"checkpoint.encode_us_p50", "us"},   {"pool.tasks_per_round", "count"},
      {"pool.task_us_p50", "us"},           {"pipeline.sanitize_ms", "ms"},
      {"pipeline.detect_ms", "ms"},         {"pipeline.cluster_ms", "ms"},
      {"pipeline.fit_ms", "ms"},            {"pipeline.solve_ms", "ms"},
      {"load.ms_per_trace", "ms"},          {"self.wire_share", "ratio"},
      {"self.engine_share", "ratio"},       {"self.session_share", "ratio"},
      {"self.sim_share", "ratio"},          {"self.design_share", "ratio"},
      {"self.fit_share", "ratio"},          {"self.checkpoint_share", "ratio"},
      {"self.pipeline_share", "ratio"},     {"trace.uncovered_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    // Layers this workload's round never enters read 0.
    result.metric(name, it != values.end() ? it->second : 0.0, unit);
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void instrument_layers(const InstrumentDelta& d, std::uint64_t rounds,
                       std::uint64_t redesigns,
                       std::map<std::string, double>& v) {
  v["design.cache_hit_ratio"] =
      ratio(static_cast<double>(d.cache_hits), static_cast<double>(d.cache_lookups));
  v["design.sweeps_per_redesign"] =
      ratio(static_cast<double>(d.cache_misses), static_cast<double>(redesigns));
  v["design.cache_tables_added"] = static_cast<double>(d.cache_misses);
  v["pool.tasks_per_round"] =
      ratio(static_cast<double>(d.pool_tasks), static_cast<double>(rounds));
  v["pool.task_us_p50"] = d.pool_task_us.count > 0 ? d.pool_task_us.p50() : 0.0;
}

// --- serve workloads -----------------------------------------------------------

/// One timed block on a fresh stack. The set-up (engine and server start,
/// client connects, one warm-up campaign per connection) is timed into
/// `setup_s`; the block's campaigns then run on the warmed stack.
PhaseStats serve_block(const ServeShape& s, const std::string& tag,
                       const std::string& work, const Plan& warmup,
                       const Plan& plan, Outcomes& outcomes,
                       std::vector<SpanLog>* logs, double& setup_s,
                       InstrumentDelta* delta, Result& result) {
  const double t0 = now_us();
  std::unique_ptr<Stack> stack =
      start_stack(s, work + "/" + tag + ".sock",
                  s.ingest ? work + "/checkpoints/" + tag : "");
  Outcomes warm;
  const PhaseStats w = run_phase(*stack, s, warmup, warm, nullptr);
  setup_s = (now_us() - t0) / 1e6;
  for (const std::string& e : w.errors) result.fail("warm-up " + e);
  const InstrumentWindow window;
  PhaseStats block = run_phase(*stack, s, plan, outcomes, logs);
  if (delta != nullptr) *delta = window.finish();
  return block;
}

void run_serve(const Args& args, const std::string& work, Result& result) {
  const ServeShape s = serve_shape(args);
  const Sizing z = sizing(args);
  std::uint32_t next_index = 0;
  result.note(fmt("fixed work: %zu blocks x %zu connections x %zu campaigns x "
                  "%" PRIu64 " rounds x %" PRIu64 " workers (%zu executors, "
                  "queue %zu)",
                  z.blocks, s.connections, z.per_block, s.rounds, s.workers,
                  s.executors, s.queue));

  std::vector<double> setup_s(z.blocks);
  std::vector<PhaseStats> blocks;
  std::vector<Plan> plans;
  std::vector<Outcomes> outcomes(z.blocks);
  StealGate gate(args.tiny ? 0.0 : kRemeasureBudgetS);
  double first_rss_mb = 0.0;
  for (std::size_t b = 0; b < z.blocks; ++b) {
    const Plan warmup = make_plan(s, args.seed, 100 + b, fmt("w%zu", b), 1, next_index);
    plans.push_back(
        make_plan(s, args.seed, 10 + b, fmt("m%zu", b), z.per_block, next_index));
    for (std::size_t attempt = 0;; ++attempt) {
      // A fresh tag per attempt: new socket and checkpoint directory.
      const std::string tag = attempt == 0 ? fmt("b%zu", b) : fmt("b%zu-r%zu", b, attempt);
      PhaseStats block = serve_block(s, tag, work, warmup, plans.back(), outcomes[b],
                                     nullptr, setup_s[b], nullptr, result);
      if (b == 0 && attempt == 0) first_rss_mb = block.peak_rss_mb;
      if (gate.redo(block, setup_s[b] + block.wall_s, "block " + tag, result)) continue;
      blocks.push_back(std::move(block));
      break;
    }
  }
  if (!args.trace) {
    report_end_to_end(blocks, setup_s, first_rss_mb, result);
    WordDigest outputs;
    for (std::size_t b = 0; b < z.blocks; ++b) {
      verify_campaigns(s, plans[b], outcomes[b], args.corrupt_digest && b == 0,
                       work, result);
      for (const auto& connection : outcomes[b]) {
        for (const CampaignOutcome& out : connection) {
          outputs.add(out.contracts_digest);
        }
      }
    }
    result.note("outputs digest (final contracts of every campaign): " +
                hex64(outputs.value()));
    return;
  }
  std::vector<double> untraced_goodput;
  for (const PhaseStats& b : blocks) {
    account(b, result);
    untraced_goodput.push_back(b.goodput());
  }

  // Traced block: the same shape with new seeds and client.call spans on
  // the served path, then a layer-by-layer replay of each connection's
  // first campaign.
  const Plan warmup = make_plan(s, args.seed, 100, "tw", 1, next_index);
  const Plan traced_plan = make_plan(s, args.seed, 2, "t", z.per_block, next_index);
  std::vector<SpanLog> logs;
  for (std::size_t i = 0; i < s.connections; ++i) logs.emplace_back(i);
  Outcomes traced_outcomes;
  double traced_setup_s = 0.0;
  InstrumentDelta delta;
  const PhaseStats traced =
      serve_block(s, "traced", work, warmup, traced_plan, traced_outcomes, &logs,
                  traced_setup_s, &delta, result);
  account(traced, result);

  const std::string replay_dir = work + "/replay";
  std::filesystem::create_directories(replay_dir + "/engine");
  std::filesystem::create_directories(replay_dir + "/session");
  serve::Engine replay_engine(
      engine_config(s, s.ingest ? replay_dir + "/engine" : ""));
  std::vector<SpanLog> replay_logs;
  std::vector<ReplayTally> tallies(s.connections);
  for (std::size_t i = 0; i < s.connections; ++i) {
    replay_logs.emplace_back(s.connections + i);
  }
  std::vector<std::thread> threads;
  for (std::size_t conn = 0; conn < s.connections; ++conn) {
    threads.emplace_back([&, conn] {
      try {
        replay_campaign(s, traced_plan[conn][0], traced_outcomes[conn][0],
                        replay_engine, replay_dir + "/session", replay_logs[conn],
                        tallies[conn]);
      } catch (const std::exception& e) {
        tallies[conn].errors.push_back(std::string("replay threw: ") + e.what());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  replay_engine.stop();

  std::vector<Span> spans;
  for (const std::vector<SpanLog>* group : {&logs, &replay_logs}) {
    for (const SpanLog& log : *group) {
      spans.insert(spans.end(), log.spans().begin(), log.spans().end());
    }
  }
  ReplayTally all;
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const ReplayTally& t : tallies) {
    for (const std::string& e : t.errors) result.fail(e);
    append(all.request_bytes, t.request_bytes);
    append(all.response_bytes, t.response_bytes);
    append(all.checkpoint_bytes, t.checkpoint_bytes);
    append(all.checkpoint_encode_us, t.checkpoint_encode_us);
    all.fitted_workers += t.fitted_workers;
    all.best_responses += t.best_responses;
  }

  std::map<std::string, double> v;
  const Attribution a = attribute(spans);
  v["wire.codec_us_p50"] = median(durations(spans, "wire.codec"));
  v["wire.request_bytes_p50"] = median(all.request_bytes);
  v["wire.response_bytes_p50"] = median(all.response_bytes);
  // Differences of spans from two executions are clamped at 0.
  const double wire = std::max(0.0, a.client - a.engine);
  const double engine_self = std::max(0.0, a.engine - a.session);
  v["wire.share"] = ratio(wire, a.client);
  v["engine.queue_wait_us_p50"] = delta.queue_wait_us.p50();
  v["engine.queue_wait_us_p99"] = delta.queue_wait_us.p99();
  v["engine.share"] = ratio(engine_self, a.engine);
  v["session.advance_us_p50"] = median(durations(spans, "session.advance"));
  v["session.ingest_us_p50"] = median(durations(spans, "session.ingest"));
  v["session.redesign_us_p50"] = median(durations(spans, "session.redesign"));
  v["sim.response_us_per_worker"] =
      ratio(a.sim, static_cast<double>(all.best_responses));
  v["design.batch_us_p50"] = median(durations(spans, "design.batch"));
  v["fit.us_per_worker"] = ratio(a.fit, static_cast<double>(all.fitted_workers));
  v["checkpoint.bytes_p50"] = median(all.checkpoint_bytes);
  v["checkpoint.write_us_p50"] = median(durations(spans, "checkpoint.write"));
  v["checkpoint.encode_us_p50"] = median(all.checkpoint_encode_us);
  instrument_layers(delta, traced.rounds, traced.redesigns, v);
  // self.* shares and trace.uncovered_ratio partition the client-observed
  // round of the replayed campaigns.
  const double session_self =
      std::max(0.0, a.session - a.design - a.fit - a.checkpoint - a.sim);
  v["self.wire_share"] = ratio(a.codec, a.client);
  v["self.engine_share"] = ratio(engine_self, a.client);
  v["self.session_share"] = ratio(session_self, a.client);
  v["self.sim_share"] = ratio(a.sim, a.client);
  v["self.design_share"] = ratio(a.design, a.client);
  v["self.fit_share"] = ratio(a.fit, a.client);
  v["self.checkpoint_share"] = ratio(a.checkpoint, a.client);
  v["trace.uncovered_ratio"] = ratio(std::max(0.0, wire - a.codec), a.client);
  v["trace.overhead_ratio"] = ratio(traced.goodput(), median(untraced_goodput));
  report_layers(result, v);

  result.note(fmt("traced block: %.3f s wall, %" PRIu64 " worker-rounds; "
                  "replayed %zu campaigns, %zu spans",
                  traced.wall_s, traced.worker_rounds, s.connections,
                  spans.size()));
  const std::string span_path = std::string(kWorkRoot) + "/spans-" + args.workload + ".jsonl";
  write_spans(span_path, args.workload, spans);
  result.note("spans written to " + span_path);
  verify_campaigns(s, traced_plan, traced_outcomes, args.corrupt_digest, work,
                   result);
}

// --- design_offline ----------------------------------------------------------

constexpr std::size_t kTraces = 8;

/// Digest of everything a pipeline run decides: per-worker outcome and
/// per-subproblem contract, as exact bit patterns.
std::uint64_t pipeline_digest(const core::PipelineResult& r) {
  WordDigest d;
  for (const core::WorkerOutcome& o : r.workers) {
    d.add(std::uint64_t{o.id} << 2 | std::uint64_t{o.quarantined} << 1 |
          std::uint64_t{o.excluded});
    d.add(o.weight);
    d.add(o.requester_utility);
    d.add(o.compensation);
    d.add(o.effort);
  }
  for (const core::SubproblemOutcome& sp : r.subproblems) d.add(sp.design.contract);
  d.add(r.total_requester_utility);
  return d.value();
}

/// Partition and Theorem 4.1 invariants; returns the first violation.
std::string pipeline_invariants(const core::PipelineResult& r, std::size_t n) {
  if (r.workers.size() != n) return "worker count changed";
  std::size_t solved = 0, excluded = 0, quarantined = 0;
  for (const core::WorkerOutcome& o : r.workers) {
    if (o.excluded && o.quarantined) return fmt("worker %u both excluded and quarantined", o.id);
    if (o.excluded) ++excluded;
    else if (o.quarantined) ++quarantined;
    else ++solved;
  }
  if (solved + excluded + quarantined != n || excluded != r.excluded_workers ||
      quarantined != r.health.quarantined_workers) {
    return fmt("partition broken: solved %zu + excluded %zu + quarantined %zu "
               "vs %zu workers (report: %zu excluded, %zu quarantined)",
               solved, excluded, quarantined, n, r.excluded_workers,
               r.health.quarantined_workers);
  }
  for (std::size_t i = 0; i < r.subproblems.size(); ++i) {
    const core::SubproblemOutcome& sp = r.subproblems[i];
    if (sp.quarantined || sp.fallback || sp.design.excluded) continue;
    const contract::SubproblemSpec& spec = sp.spec;
    const double lower = contract::theorem41_lower_bound(
        spec.psi, spec.weight, spec.mu, spec.incentives.beta, spec.delta(),
        sp.design.k_opt);
    const double upper = contract::theorem41_upper_bound(
        spec.psi, spec.weight, spec.mu, spec.incentives.beta, spec.delta(),
        spec.intervals, spec.incentives.omega);
    const double u = sp.design.requester_utility;
    const double slack = 1e-9 * std::max(1.0, std::fabs(u));
    if (!(u >= lower - slack && u <= upper + slack)) {
      return fmt("subproblem %zu utility %.17g outside Theorem 4.1 [%.17g, %.17g]",
                 i, u, lower, upper);
    }
  }
  return {};
}

void run_offline(const Args& args, const std::string& work, Result& result) {
  const Sizing z = sizing(args);
  util::Rng rng = stream(args.seed, 3);
  std::vector<std::string> prefixes;
  for (std::size_t i = 0; i < kTraces; ++i) {
    data::GeneratorParams params =
        args.tiny ? data::GeneratorParams::small() : data::GeneratorParams::medium();
    params.seed = rng.next_u64() >> 1;
    prefixes.push_back(work + fmt("/trace%zu", i));
    data::save_trace(data::generate_trace(params), prefixes.back());
  }

  // Set-up, before every block: load the eight saved traces.
  std::vector<data::ReviewTrace> traces;
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  auto setup = [&] {
    traces.clear();
    const double t0 = now_us();
    for (const std::string& prefix : prefixes) {
      const double l0 = now_us();
      traces.push_back(data::load_trace(prefix));
      load_ms.push_back((now_us() - l0) / 1000.0);
    }
    setup_s.push_back((now_us() - t0) / 1e6);
  };
  result.note(fmt("fixed work: %zu blocks x %zu run_pipeline calls cycling %zu traces",
                  z.blocks, z.per_block, kTraces));

  std::vector<std::uint64_t> first_digest(kTraces, 0);
  std::vector<core::PipelineResult> last(kTraces);
  std::size_t next_run = 0;
  auto phase = [&](SpanLog* log) {
    PhaseStats p;
    const core::PipelineConfig config;
    const StealMeter steal;
    const double cpu0 = process_cpu_s();
    const double w0 = now_us();
    for (std::size_t end = next_run + z.per_block; next_run < end; ++next_run) {
      const std::size_t j = next_run;
      const std::size_t ti = j % kTraces;
      ++p.attempted;
      try {
        const double t0 = now_us();
        core::PipelineResult r = core::run_pipeline(traces[ti], config);
        const double t1 = now_us();
        p.round_us.push_back(t1 - t0);
        ++p.rounds;
        ++p.redesigns;
        p.worker_rounds += traces[ti].workers().size();
        if (log != nullptr) {
          // Stage durations are the pipeline's own (PipelineResult::timings),
          // laid end to end from the call's start.
          const auto ri = static_cast<std::uint32_t>(j);
          const std::uint64_t run_span = log->reserve();
          double at = t0;
          const core::StageTimings& tm = r.timings;
          const std::pair<const char*, double> stages[] = {
              {"pipeline.sanitize", tm.sanitize_s}, {"pipeline.detect", tm.detect_s},
              {"pipeline.cluster", tm.cluster_s},   {"pipeline.fit", tm.fit_s},
              {"pipeline.solve", tm.solve_s}};
          for (const auto& [name, s] : stages) {
            log->add(name, at, at + s * 1e6, run_span, static_cast<std::uint32_t>(ti), ri);
            at += s * 1e6;
          }
          log->add("pipeline.run", t0, t1, 0, static_cast<std::uint32_t>(ti), ri, run_span);
        }
        std::uint64_t d = pipeline_digest(r);
        if (first_digest[ti] == 0) {
          if (args.corrupt_digest && ti == 0) d ^= 1;
          first_digest[ti] = d;
        } else if (d != first_digest[ti]) {
          p.errors.push_back(fmt("trace %zu (%s): run %zu digest %s != first run %s",
                                 ti, prefixes[ti].c_str(), j, hex64(d).c_str(),
                                 hex64(first_digest[ti]).c_str()));
        }
        last[ti] = std::move(r);
      } catch (const std::exception& e) {
        ++p.failed;
        p.errors.push_back(fmt("trace %zu: run_pipeline threw: %s", ti, e.what()));
      }
    }
    p.wall_s = (now_us() - w0) / 1e6;
    p.cpu_s = process_cpu_s() - cpu0;
    p.steal_share = steal.share();
    p.peak_rss_mb = peak_rss_mb();
    return p;
  };

  std::vector<PhaseStats> blocks;
  StealGate gate(args.tiny ? 0.0 : kRemeasureBudgetS);
  double first_rss_mb = 0.0;
  for (std::size_t b = 0; b < z.blocks; ++b) {
    setup();
    const std::size_t first_run = next_run;
    for (;;) {
      PhaseStats block = phase(nullptr);
      if (first_rss_mb == 0.0) first_rss_mb = block.peak_rss_mb;
      if (!gate.redo(block, block.wall_s, fmt("block b%zu", b), result)) {
        blocks.push_back(std::move(block));
        break;
      }
      next_run = first_run;  // the same calls again
    }
  }
  if (!args.trace) report_end_to_end(blocks, setup_s, first_rss_mb, result);
  if (args.trace) {
    std::vector<double> untraced_goodput;
    for (const PhaseStats& b : blocks) {
      account(b, result);
      untraced_goodput.push_back(b.goodput());
    }
    SpanLog log;
    setup();
    const InstrumentWindow window;
    const PhaseStats traced = phase(&log);
    const InstrumentDelta delta = window.finish();
    account(traced, result);
    std::vector<Span> spans = log.spans();

    // Replica of the solve stage: design_contracts_batch over each trace's
    // subproblem specs must reproduce the pipeline's contracts bitwise.
    for (std::size_t ti = 0; ti < kTraces; ++ti) {
      const core::PipelineResult& r = last[ti];
      std::vector<contract::SubproblemSpec> specs;
      for (const core::SubproblemOutcome& sp : r.subproblems) specs.push_back(sp.spec);
      for (int rep = 0; rep < 5; ++rep) {
        const double t0 = now_us();
        const std::vector<contract::DesignResult> designs =
            contract::design_contracts_batch(specs);
        const double t1 = now_us();
        spans.push_back(Span{0, 0, "design.batch", t0, t1,
                             static_cast<std::uint32_t>(ti), 0});
        for (std::size_t i = 0; i < designs.size(); ++i) {
          const core::SubproblemOutcome& sp = r.subproblems[i];
          if (sp.quarantined || sp.fallback) continue;
          if (encode_contracts({designs[i].contract}) !=
              encode_contracts({sp.design.contract})) {
            result.fail(fmt("trace %zu: replica design of subproblem %zu differs "
                            "from the pipeline's",
                            ti, i));
            break;
          }
        }
      }
    }

    auto stage_ms = [&](const char* name) { return median(durations(spans, name)) / 1000.0; };
    double total = 0, sanitize = 0, detect = 0, cluster = 0, fit = 0, solve = 0;
    for (const Span& s : spans) {
      const std::string n = s.name;
      if (n == "pipeline.run") total += s.us();
      else if (n == "pipeline.sanitize") sanitize += s.us();
      else if (n == "pipeline.detect") detect += s.us();
      else if (n == "pipeline.cluster") cluster += s.us();
      else if (n == "pipeline.fit") fit += s.us();
      else if (n == "pipeline.solve") solve += s.us();
    }
    std::map<std::string, double> v;
    v["pipeline.sanitize_ms"] = stage_ms("pipeline.sanitize");
    v["pipeline.detect_ms"] = stage_ms("pipeline.detect");
    v["pipeline.cluster_ms"] = stage_ms("pipeline.cluster");
    v["pipeline.fit_ms"] = stage_ms("pipeline.fit");
    v["pipeline.solve_ms"] = stage_ms("pipeline.solve");
    v["load.ms_per_trace"] = median(load_ms);
    v["design.batch_us_p50"] = median(durations(spans, "design.batch"));
    instrument_layers(delta, traced.rounds, traced.redesigns, v);
    v["self.design_share"] = ratio(solve, total);
    v["self.fit_share"] = ratio(fit, total);
    v["self.pipeline_share"] = ratio(sanitize + detect + cluster, total);
    v["trace.uncovered_ratio"] =
        ratio(std::max(0.0, total - sanitize - detect - cluster - fit - solve), total);
    v["trace.overhead_ratio"] =
        ratio(traced.goodput(), median(untraced_goodput));
    report_layers(result, v);
    const std::string span_path = std::string(kWorkRoot) + "/spans-" + args.workload + ".jsonl";
    write_spans(span_path, args.workload, spans);
    result.note("spans written to " + span_path);
  }

  // Outside the timed phase: invariants on one more run per trace, whose
  // digest must also match the timed runs'.
  const core::PipelineConfig config;
  for (std::size_t ti = 0; ti < kTraces; ++ti) {
    const core::PipelineResult r = core::run_pipeline(traces[ti], config);
    const std::string bad = pipeline_invariants(r, traces[ti].workers().size());
    if (!bad.empty()) result.fail(fmt("trace %zu (%s): %s", ti, prefixes[ti].c_str(), bad.c_str()));
    if (pipeline_digest(r) != first_digest[ti]) {
      result.fail(fmt("trace %zu (%s): verification digest %s != timed digest %s", ti,
                      prefixes[ti].c_str(), hex64(pipeline_digest(r)).c_str(),
                      hex64(first_digest[ti]).c_str()));
    }
  }
  result.note(fmt("verified %zu traces: partition, Theorem 4.1 bounds, digests", kTraces));
  WordDigest outputs;
  for (const std::uint64_t d : first_digest) outputs.add(d);
  result.note("outputs digest (pipeline result of every trace): " +
              hex64(outputs.value()));
}

// --- provenance -----------------------------------------------------------------

std::string filesystem_type(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: return fmt("0x%lx", static_cast<unsigned long>(fs.f_type));
  }
}

/// Host-speed probe taken before set-up: median of 15 single-threaded
/// design_fleet calls on a fixed 100k-worker, two-class fleet.
double calibration_ms() {
  std::vector<contract::SubproblemSpec> specs(100'000);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    contract::SubproblemSpec& s = specs[i];
    const bool odd = i % 2 == 1;
    s.psi = odd ? effort::QuadraticEffort(-1.2, 9.0, 1.5)
                : effort::QuadraticEffort(-1.0, 8.0, 2.0);
    s.incentives.omega = odd ? 0.5 : 0.0;
    s.weight = 0.5 + static_cast<double>(i % 97) / 97.0;
  }
  const contract::FleetSoA fleet = contract::FleetSoA::from_specs(specs);
  util::ThreadPool pool(1);
  contract::FleetOptions options;
  options.pool = &pool;
  std::vector<double> ms;
  for (int rep = 0; rep < 15; ++rep) {
    const double t0 = now_us();
    const contract::FleetDesignResult r = contract::design_fleet(fleet, options);
    ms.push_back((now_us() - t0) / 1000.0);
    if (r.workers() != specs.size()) throw std::runtime_error("calibration fleet size");
  }
  return median(ms);
}

// --- main -------------------------------------------------------------------------

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sim_serve|ingest_durable|design_offline "
               "--seed N --seconds S --trace 0|1 [--tiny] [--corrupt-digest] "
               "[--force] [--commit SHA] [--source-digest HEX]\n");
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
      return argv[++i];
    };
    if (key == "--workload") args.workload = value();
    else if (key == "--seed") args.seed = std::stoull(value());
    else if (key == "--seconds") args.seconds = std::stod(value());
    else if (key == "--trace") args.trace = value() != "0";
    else if (key == "--commit") args.commit = value();
    else if (key == "--source-digest") args.source_digest = value();
    else if (key == "--tiny") args.tiny = true;
    else if (key == "--corrupt-digest") args.corrupt_digest = true;
    else if (key == "--force") args.force = true;
    else throw std::invalid_argument("unknown argument " + key);
  }
  return (args.workload == "sim_serve" || args.workload == "ingest_durable" ||
          args.workload == "design_offline") &&
         args.seconds > 0.0;
}

int run(int argc, char** argv) {
  Args args;
  try {
    if (!parse(argc, argv, args)) {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    usage();
    return 2;
  }
  const std::string build_type = CCD_BUILD_TYPE;
  if (build_type != "release" && !args.force) {
    std::fprintf(stderr,
                 "perfbench: library_build_type is \"%s\", not \"release\"; "
                 "refusing to measure (rebuild with -DCMAKE_BUILD_TYPE=Release, "
                 "or pass --force)\n",
                 build_type.c_str());
    return 3;
  }
  const std::string work = fmt("%s/%s-%d", kWorkRoot, args.workload.c_str(),
                               static_cast<int>(::getpid()));
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);

  Result result;
  const double calibration = calibration_ms();
  std::printf("provenance {\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"seconds\":%g,\"trace\":%d,\"tiny\":%s,\"nproc\":%ld,"
              "\"build_type\":\"%s\",\"commit\":\"%s\",\"source_digest\":\"%s\","
              "\"checkpoint_fs\":\"%s\",\"calibration_design_fleet_ms\":%.4f}\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
              args.tiny ? "true" : "false", ::sysconf(_SC_NPROCESSORS_ONLN),
              build_type.c_str(), args.commit.c_str(), args.source_digest.c_str(),
              filesystem_type(work).c_str(), calibration);
  std::fflush(stdout);

  try {
    if (args.workload == "design_offline") {
      run_offline(args, work, result);
    } else {
      run_serve(args, work, result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    std::filesystem::remove_all(work);
    return 1;
  }
  std::filesystem::remove_all(work);

  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::string json = fmt("{\"correct\": %s, \"attempted\": %" PRIu64
                         ", \"failed\": %" PRIu64 ", \"metrics\": {",
                         result.correct() ? "true" : "false", result.attempted,
                         result.failed);
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, value, unit] = result.metrics[i];
    json += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                name.c_str(), value, unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct() ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
