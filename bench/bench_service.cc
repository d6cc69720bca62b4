/**
 * @file
 * Compile-service benchmark — the machine-readable robustness
 * baseline behind BENCH_service.json.
 *
 * An in-process `polyfuse --serve` daemon is exercised the way a
 * fleet would use it:
 *
 *   latency   concurrent clients stream warm compile+run requests
 *             (kernel-cache hits) and ping requests through the unix
 *             socket; client-side wall-clock per request gives
 *             p50/p95/p99 for both classes, plus the mean in-server
 *             queue wait
 *   shed      a deliberately tiny admission queue is flooded; every
 *             response must be either ok or a typed `overloaded`
 *             error, and the daemon must keep answering afterwards
 *   retry     a transient native-tier failure is injected via the
 *             exec.native.transient failpoint; the request must
 *             retry per the backoff policy, degrade to bytecode,
 *             and still produce bit-identical buffers
 *
 * Every compile response's bufferHash is compared against a direct
 * driver::compileKernel run of the same request — the benchmark
 * doubles as a correctness gate and exits nonzero on any mismatch,
 * unexpected error kind, or lost response.
 *
 * Modes (bench/harness.hh): table, --json, and --smoke — a short
 * burst with the same gates; the check_service_smoke ctest runs
 * this.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "bench/harness.hh"
#include "driver/artifact.hh"
#include "driver/registry.hh"
#include "exec/kernel_cache.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "support/failpoint.hh"

using namespace polyfuse;
using namespace polyfuse::bench;

namespace {

std::string
socketPath()
{
    return "/tmp/pf_bench_" + std::to_string(::getpid()) + ".sock";
}

service::Request
compileReq(uint64_t id, std::vector<int64_t> tiles = {8, 8})
{
    service::Request req;
    req.op = "compile";
    req.id = id;
    req.workload = "conv2d";
    req.rows = 32;
    req.cols = 32;
    req.tiles = std::move(tiles);
    req.tilesGiven = true;
    return req;
}

/** Direct driver run of @p req: the bit-identity reference. */
std::string
directHash(const service::Request &req)
{
    const driver::WorkloadSpec *spec =
        driver::findWorkload(req.workload);
    driver::PipelineOptions popts;
    driver::parseStrategy(req.strategy, popts.strategy);
    popts.tileSizes = req.tilesGiven ? req.tiles : spec->defaultTiles;
    driver::WorkloadParams params = spec->defaults;
    params.rows = req.rows;
    params.cols = req.cols;
    auto program =
        std::make_shared<const ir::Program>(spec->make(params));
    driver::Pipeline pipeline(popts);
    auto artifact = driver::compileKernel(pipeline, program);
    exec::Buffers buffers(*program);
    service::fillServiceInputs(*program, buffers);
    driver::executeKernel(artifact, buffers);
    return service::hashBuffers(buffers);
}

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0;
    std::sort(sorted.begin(), sorted.end());
    size_t idx = size_t(q * double(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

struct SweepResult
{
    // latency (client-side wall ms)
    std::vector<double> compileMs;
    std::vector<double> pingMs;
    double meanQueueMs = 0;
    uint64_t cacheHits = 0;
    // shed phase
    uint64_t shedOk = 0;       ///< flood responses that were ok
    uint64_t shedTyped = 0;    ///< flood responses typed overloaded
    uint64_t shedUnexpected = 0; ///< anything else (a failure)
    bool recoveredAfterShed = false;
    // retry phase
    unsigned retryCount = 0;
    bool retryDegradedOk = false;
    // gates
    uint64_t mismatches = 0;
    uint64_t transportErrors = 0;
};

/** Stream @p n warm compile requests + pings on one connection. */
void
clientLoop(const std::string &path, int n, uint64_t id_base,
           const std::string &expect_hash, SweepResult *out,
           std::mutex *mu)
{
    service::Client c;
    std::string err;
    if (!c.connect(path, &err)) {
        std::lock_guard<std::mutex> lock(*mu);
        ++out->transportErrors;
        return;
    }
    std::vector<double> compile_ms, ping_ms;
    double queue_ms = 0;
    uint64_t hits = 0, mismatches = 0, transport = 0;
    for (int i = 0; i < n; ++i) {
        service::Request req = compileReq(id_base + uint64_t(i));
        service::Response resp;
        Timer t;
        if (!c.call(req, &resp, &err) || !resp.ok) {
            ++transport;
            continue;
        }
        compile_ms.push_back(t.milliseconds());
        queue_ms += resp.queueMs;
        if (resp.fromCache)
            ++hits;
        if (resp.bufferHash != expect_hash)
            ++mismatches;

        service::Request ping;
        ping.op = "ping";
        ping.id = id_base + uint64_t(i);
        Timer tp;
        if (!c.call(ping, &resp, &err) || !resp.ok) {
            ++transport;
            continue;
        }
        ping_ms.push_back(tp.milliseconds());
    }
    std::lock_guard<std::mutex> lock(*mu);
    out->compileMs.insert(out->compileMs.end(), compile_ms.begin(),
                          compile_ms.end());
    out->pingMs.insert(out->pingMs.end(), ping_ms.begin(),
                       ping_ms.end());
    out->meanQueueMs += queue_ms;
    out->cacheHits += hits;
    out->mismatches += mismatches;
    out->transportErrors += transport;
}

/** Flood a tiny-queue server; count ok vs typed-overloaded. */
void
shedPhase(SweepResult *r, int flood)
{
    service::ServerOptions opts;
    opts.workers = 2;
    opts.maxQueueDepth = 2;
    opts.nativeRetry.sleep = [](double) {};
    service::Server srv(socketPath() + ".shed", opts);
    std::string err;
    if (!srv.start(&err)) {
        ++r->shedUnexpected;
        return;
    }
    const std::string expect = directHash(compileReq(0));

    std::mutex mu;
    std::vector<std::thread> threads;
    for (int i = 0; i < flood; ++i)
        threads.emplace_back([&, i] {
            service::Client c;
            std::string cerr;
            if (!c.connect(srv.socketPath(), &cerr)) {
                std::lock_guard<std::mutex> lock(mu);
                ++r->shedUnexpected;
                return;
            }
            service::Response resp;
            service::Request req = compileReq(uint64_t(i));
            if (!c.call(req, &resp, &cerr)) {
                std::lock_guard<std::mutex> lock(mu);
                ++r->shedUnexpected;
                return;
            }
            std::lock_guard<std::mutex> lock(mu);
            if (resp.ok && resp.bufferHash == expect)
                ++r->shedOk;
            else if (!resp.ok &&
                     resp.kind == service::ErrorKind::Overloaded)
                ++r->shedTyped;
            else
                ++r->shedUnexpected;
        });
    for (auto &t : threads)
        t.join();

    // The daemon must still answer after the flood. `overloaded` is
    // an explicit "come back later": admission slots release a beat
    // after the replies land, so honor the contract and retry.
    service::Client c;
    service::Response resp;
    if (c.connect(srv.socketPath(), &err)) {
        for (int attempt = 0; attempt < 200; ++attempt) {
            if (!c.call(compileReq(9999), &resp, &err))
                break;
            if (resp.ok) {
                r->recoveredAfterShed = resp.bufferHash == expect;
                break;
            }
            if (resp.kind != service::ErrorKind::Overloaded)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
    }
    srv.stop();
}

/** Inject a transient native failure; demand retry-then-degrade. */
void
retryPhase(SweepResult *r)
{
    service::ServerOptions opts;
    opts.workers = 1;
    opts.nativeRetry.sleep = [](double) {};
    service::Server srv(socketPath() + ".retry", opts);
    std::string err;
    if (!srv.start(&err))
        return;
    service::Request req = compileReq(1, {16, 16});
    const std::string expect = [&] {
        service::Request ref = req;
        return directHash(ref);
    }();

    failpoints::set("exec.native.transient",
                    failpoints::Action::Error);
    service::Client c;
    service::Response resp;
    req.tier = "native";
    if (c.connect(srv.socketPath(), &err) &&
        c.call(req, &resp, &err) && resp.ok) {
        r->retryCount = resp.retries;
        r->retryDegradedOk =
            resp.tier == "bytecode" && resp.bufferHash == expect;
    }
    failpoints::clearAll();
    srv.stop();
}

int
runSweep(bool smoke, bool json)
{
    Host host = Host::probe();
    const int clients = smoke ? 2 : 4;
    const int per_client = smoke ? 4 : 50;
    const int flood = smoke ? 6 : 24;

    exec::KernelCache::process().clear();
    service::ServerOptions opts;
    opts.workers = 4;
    opts.nativeRetry.sleep = [](double) {};
    service::Server srv(socketPath(), opts);
    std::string err;
    if (!srv.start(&err)) {
        std::fprintf(stderr, "start: %s\n", err.c_str());
        return 1;
    }

    // Reference bits + cache warmup (one cold compile).
    const std::string expect = directHash(compileReq(0));
    {
        service::Client c;
        service::Response resp;
        if (!c.connect(srv.socketPath(), &err) ||
            !c.call(compileReq(0), &resp, &err) || !resp.ok ||
            resp.bufferHash != expect) {
            std::fprintf(stderr, "warmup failed\n");
            return 1;
        }
    }

    SweepResult r;
    std::mutex mu;
    std::vector<std::thread> threads;
    for (int i = 0; i < clients; ++i)
        threads.emplace_back(clientLoop, srv.socketPath(),
                             per_client,
                             uint64_t(1000 + i * per_client), expect,
                             &r, &mu);
    for (auto &t : threads)
        t.join();
    if (!r.compileMs.empty())
        r.meanQueueMs /= double(r.compileMs.size());
    service::ServerStats stats = srv.stats();
    srv.stop();

    shedPhase(&r, flood);
    retryPhase(&r);

    const uint64_t expected_responses =
        uint64_t(clients) * uint64_t(per_client);
    bool ok = r.mismatches == 0 && r.transportErrors == 0 &&
              r.compileMs.size() == expected_responses &&
              r.shedUnexpected == 0 &&
              r.shedOk + r.shedTyped == uint64_t(flood) &&
              r.recoveredAfterShed && r.retryDegradedOk;

    double p50 = percentile(r.compileMs, 0.50);
    double p95 = percentile(r.compileMs, 0.95);
    double p99 = percentile(r.compileMs, 0.99);
    double ping50 = percentile(r.pingMs, 0.50);
    double ping99 = percentile(r.pingMs, 0.99);

    if (json) {
        JsonObject out = benchJson("service", host);
        out.integer("workers", 4)
            .integer("clients", clients)
            .integer("requests", r.compileMs.size())
            .num("compileP50Ms", p50, "%.4f")
            .num("compileP95Ms", p95, "%.4f")
            .num("compileP99Ms", p99, "%.4f")
            .num("pingP50Ms", ping50, "%.4f")
            .num("pingP99Ms", ping99, "%.4f")
            .num("meanQueueMs", r.meanQueueMs, "%.4f")
            .integer("cacheHits", r.cacheHits)
            .integer("serverAccepted", stats.accepted)
            .integer("floodRequests", flood)
            .integer("floodOk", r.shedOk)
            .integer("floodShed", r.shedTyped)
            .boolean("recoveredAfterShed", r.recoveredAfterShed)
            .integer("transientRetries", r.retryCount)
            .boolean("retryDegradedOk", r.retryDegradedOk)
            .boolean("allIdentical", ok);
        std::printf("%s\n", out.text().c_str());
        return ok ? 0 : 1;
    }

    host.print();
    std::printf("=== Compile service (%d clients x %d warm "
                "requests) ===\n",
                clients, per_client);
    printRow("latency",
             {"p50 ms", "p95 ms", "p99 ms", "queue ms"}, 11);
    printRow("compile+run",
             {fmt(p50, "%.3f"), fmt(p95, "%.3f"), fmt(p99, "%.3f"),
              fmt(r.meanQueueMs, "%.3f")},
             11);
    printRow("ping",
             {fmt(ping50, "%.3f"), "", fmt(ping99, "%.3f"), ""}, 11);
    std::printf("cache hits: %llu / %llu responses\n",
                (unsigned long long)r.cacheHits,
                (unsigned long long)r.compileMs.size());
    std::printf("flood: %llu ok + %llu shed (typed) of %d; "
                "recovered %s\n",
                (unsigned long long)r.shedOk,
                (unsigned long long)r.shedTyped, flood,
                r.recoveredAfterShed ? "yes" : "NO");
    std::printf("transient native failure: %u retries, degrade "
                "%s\n",
                r.retryCount, r.retryDegradedOk ? "ok" : "FAILED");
    std::printf("%s\n", ok ? "ok" : "FAILED: service gate");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, "bench_service [--smoke] [--json]",
                   args))
        return 2;
    return runSweep(args.smoke, args.json);
}
