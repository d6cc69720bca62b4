/**
 * @file
 * serve_native: an in-process service::Server with 2 workers and an
 * empty process KernelCache, driven by 2 closed-loop client
 * connections that each wait for their reply (like a build running two
 * `polyfuse --connect` jobs). Requests cover all 13 registry programs
 * at default sizes on tier native with par off; the keys are split
 * between the clients. One request in 25 names a new size: a miss
 * (pipeline, native build, run). Every other request repeats a key: a
 * hit (cache lookup, buffers, run, hash, reply). This is the only
 * workload where admission, queueing and reply, the kernel cache and
 * the native build all run.
 */

#include <atomic>
#include <chrono>
#include <thread>

#include <unistd.h>

#include "exec/kernel_cache.hh"
#include "pfbench.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "support/timer.hh"

namespace pfbench {

namespace {

constexpr unsigned kClients = 2;
constexpr unsigned kWorkers = 2;
/** Every kMissEvery-th request of a client names a new size. */
constexpr uint64_t kMissEvery = 25;
/** Misses with a precomputed reference, per client and second of the
 *  run; a client that uses them up sends only hits (reported). */
constexpr double kMissesPerSecond = 2;
/** Bound on one reply, so a wedged server fails the run instead of
 *  hanging it. */
constexpr double kReplyTimeoutMs = 60000;
/** Hits a run needs so hit_ms.p99 has ten samples beyond it; the
 *  loop runs past --seconds (up to half as long again) to reach it. */
constexpr uint64_t kMinHits = 1000;
/** Interval of the host probe during the timed loop. */
constexpr std::chrono::milliseconds kProbeEvery{200};

/** One request key and its reference buffer hash. */
struct Key
{
    ProgramKey key;
    std::string hash;
};

service::Request
requestFor(const ProgramKey &key, uint64_t id)
{
    service::Request req;
    req.id = id;
    req.workload = key.name();
    req.rows = key.params.rows;
    req.cols = key.params.cols;
    req.tier = "native";
    req.par = "off";
    return req;
}

/** Direct driver run of @p key on bytecode, the tier every backend is
 *  bit-identical to (exec::BackendSpec); as bench/bench_service.cc. */
std::string
directHash(const ProgramKey &key)
{
    auto program = key.make();
    ColdCompile cc = compileCold(program, *key.spec, exec::Tier::Bytecode,
                                 nullptr, 0);
    exec::Buffers buffers = serviceBuffers(*program);
    driver::executeKernel(cc.artifact, buffers);
    return service::hashBuffers(buffers);
}

/** What one client observed in the timed loop. */
struct ClientLog
{
    std::vector<double> hitMs, missMs;
    std::map<std::string, std::vector<double>> plain, withSpans;
    uint64_t ok = 0;
    uint64_t missesLeftOut = 0; ///< miss slots sent as hits
    Tally tally;
};

/** Send @p req and check the reply; @return the reply wall ms, or a
 *  negative value when the request failed (counted in @p tally). */
double
callChecked(service::Client &client, const service::Request &req,
            const std::string &want_hash, bool corrupt, Tally &tally,
            service::Response *resp)
{
    tally.attempt();
    std::string err;
    Timer timer;
    bool sent = client.call(req, resp, &err);
    double ms = timer.milliseconds();
    std::string label = req.workload + "@" + std::to_string(req.rows) +
                        "x" + std::to_string(req.cols);
    if (!sent) {
        tally.fail(label + ": transport: " + err);
        return -1;
    }
    if (!resp->ok) {
        tally.fail(label + ": " + service::errorKindName(resp->kind) +
                   ": " + resp->message);
        return -1;
    }
    if (resp->tier != "native") {
        tally.fail(label + " ran on " + resp->tier + ": " +
                   resp->tierFallbackReason);
        return -1;
    }
    std::string got = resp->bufferHash;
    if (corrupt && !got.empty())
        got[0] = got[0] == '0' ? '1' : '0';
    if (got != want_hash) {
        tally.fail(label + ": buffer hash " + got + ", reference " +
                   want_hash);
        return -1;
    }
    return ms;
}

} // namespace

PassResult
runServeNative(const RunConfig &cfg, Recorder &rec)
{
    PassResult out;
    const bool tracing = cfg.trace != TraceMode::Off;
    const auto &registry = driver::workloadRegistry();
    std::mt19937_64 rng(cfg.seed);

    // Keys: the default size of every program (hits after set-up),
    // split between the clients by registry position, and per client
    // a seeded list of new sizes (misses).
    std::vector<Key> keys;
    std::vector<std::vector<size_t>> hitKeys(kClients), missKeys(kClients);
    for (size_t i = 0; i < registry.size(); ++i) {
        hitKeys[i % kClients].push_back(keys.size());
        keys.push_back({{&registry[i], registry[i].defaults}, ""});
    }
    size_t missesPerClient =
        size_t(cfg.seconds * kMissesPerSecond) + 1;
    std::vector<int64_t> newSizes(registry.size(), 0);
    for (unsigned c = 0; c < kClients; ++c) {
        std::vector<size_t> order = hitKeys[c];
        while (missKeys[c].size() < missesPerClient) {
            shuffle(order, rng);
            for (size_t h : order) {
                if (missKeys[c].size() >= missesPerClient)
                    break;
                const driver::WorkloadSpec &s = *keys[h].key.spec;
                driver::WorkloadParams half = s.defaults;
                half.rows /= 2;
                half.cols /= 2;
                missKeys[c].push_back(keys.size());
                keys.push_back(
                    {{&s, sizeNumber(s, half, newSizes[h]++)}, ""});
            }
        }
    }

    // References first: outside every timed metric.
    parallelFor(keys.size(),
                [&](size_t i) { keys[i].hash = directHash(keys[i].key); });
    resetPeakRss();

    service::ServerOptions opts;
    opts.workers = kWorkers;
    const std::string path = cfg.workDir + "/pfbench-" +
                             std::to_string(::getpid()) + ".sock";
    std::unique_ptr<service::Server> server;
    std::vector<service::Client> clients(kClients);
    std::atomic<uint64_t> nextId{1};

    // Set-up: a fresh server over an empty cache, connected clients,
    // and one (miss) request per hit key; setup_s is the median.
    std::vector<double> setups;
    for (int rep = 0; rep < cfg.setupReps; ++rep) {
        exec::KernelCache::process().clear();
        double t0 = rec.nowUs();
        Timer timer;
        server = std::make_unique<service::Server>(path, opts);
        std::string err;
        if (!server->start(&err))
            throw std::runtime_error("server start: " + err);
        std::vector<Tally> tallies(kClients);
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClients; ++c) {
            if (!clients[c].connect(path, &err))
                throw std::runtime_error("client connect: " + err);
            clients[c].setRecvTimeout(kReplyTimeoutMs);
        }
        auto warm = [&](unsigned c) {
            for (size_t h : hitKeys[c]) {
                service::Response resp;
                callChecked(clients[c], requestFor(keys[h].key, nextId++),
                            keys[h].hash, false, tallies[c], &resp);
            }
        };
        for (unsigned c = 1; c < kClients; ++c)
            threads.emplace_back(warm, c);
        warm(0);
        for (auto &t : threads)
            t.join();
        setups.push_back(timer.seconds());
        if (tracing)
            rec.record("setup", 0, t0, rec.nowUs());
        for (const Tally &t : tallies)
            out.tally.merge(t);
        if (rep + 1 < cfg.setupReps) {
            for (auto &c : clients)
                c.close();
            server->stop();
        }
    }

    // The timed loop: each client cycles through its hit keys in a
    // seeded order; every kMissEvery-th request is its next miss.
    exec::KernelCache::Counters before =
        exec::KernelCache::process().counters();
    std::vector<ClientLog> logs(kClients);
    std::vector<std::vector<size_t>> orders = hitKeys;
    for (auto &o : orders)
        shuffle(o, rng);
    std::atomic<uint64_t> hits{0};
    std::atomic<unsigned> driving{kClients};
    Timer loop;
    auto drive = [&](unsigned c) {
        ClientLog &log = logs[c];
        std::vector<size_t> &order = orders[c];
        size_t nextHit = 0, nextMiss = 0;
        std::map<size_t, uint64_t> sent; // requests per key
        bool corrupt = cfg.corrupt && c == 0;
        auto more = [&]() {
            double t = loop.seconds();
            return t < cfg.seconds ||
                   (hits.load() < kMinHits && t < 1.5 * cfg.seconds);
        };
        for (uint64_t i = 1; more(); ++i) {
            size_t k;
            if (i % kMissEvery == 0 && nextMiss < missKeys[c].size()) {
                k = missKeys[c][nextMiss++];
            } else {
                if (i % kMissEvery == 0)
                    ++log.missesLeftOut;
                k = order[nextHit++ % order.size()];
            }
            uint64_t id = nextId++;
            bool tr = traced(cfg, ++sent[k]);
            double t0 = rec.nowUs();
            service::Response resp;
            double ms = callChecked(clients[c], requestFor(keys[k].key, id),
                                    keys[k].hash, corrupt, log.tally,
                                    &resp);
            corrupt = false;
            if (ms < 0)
                continue;
            ++log.ok;
            (resp.fromCache ? log.hitMs : log.missMs).push_back(ms);
            if (resp.fromCache)
                ++hits;
            if (!tr) {
                if (resp.fromCache)
                    log.plain[keys[k].key.name()].push_back(ms);
                continue;
            }
            Timer recording;
            rec.record("service.Client::call", id, t0, t0 + ms * 1e3,
                       {{"program", keys[k].key.name()},
                        {"cache", resp.fromCache ? "hit" : "miss"}},
                       {{"queue_ms", resp.queueMs},
                        {"compile_ms", resp.compileMs},
                        {"run_ms", resp.runMs}});
            if (resp.fromCache)
                log.withSpans[keys[k].key.name()].push_back(
                    ms + recording.milliseconds());
        }
        --driving;
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c)
        threads.emplace_back(drive, c);
    // The host probe runs on this thread while the clients drive the
    // server: between requests it would add think time to a client.
    while (driving.load() > 0) {
        out.probeMs.push_back(hostProbeMs());
        std::this_thread::sleep_for(kProbeEvery);
    }
    for (auto &t : threads)
        t.join();
    double loopSeconds = loop.seconds();
    exec::KernelCache::Counters after =
        exec::KernelCache::process().counters();

    service::Request statsReq;
    statsReq.op = "stats";
    statsReq.id = nextId++;
    service::Response stats;
    std::string err;
    out.tally.attempt();
    if (!clients[0].call(statsReq, &stats, &err) || !stats.ok)
        out.tally.fail("stats op: " + err + stats.message);
    for (auto &c : clients)
        c.close();
    server->stop();

    double lookups = double((after.hits - before.hits) +
                            (after.misses - before.misses));
    if (tracing)
        rec.record("service.stats", statsReq.id, rec.nowUs(), rec.nowUs(),
                   {},
                   {{"shed", double(stats.server.shed)},
                    {"errors", double(stats.server.errors)},
                    {"retries", double(stats.server.retries)},
                    {"cache_hits", double(after.hits - before.hits)},
                    {"cache_lookups", lookups},
                    {"cache_lookup_ns",
                     double(after.lookupNs - before.lookupNs)}});

    std::vector<double> hitMs, missMs;
    uint64_t ok = 0, leftOut = 0;
    std::map<std::string, std::vector<double>> plain, withSpans;
    for (ClientLog &log : logs) {
        hitMs.insert(hitMs.end(), log.hitMs.begin(), log.hitMs.end());
        missMs.insert(missMs.end(), log.missMs.begin(), log.missMs.end());
        ok += log.ok;
        leftOut += log.missesLeftOut;
        out.tally.merge(log.tally);
        for (auto &kv : log.plain)
            plain[kv.first].insert(plain[kv.first].end(),
                                   kv.second.begin(), kv.second.end());
        for (auto &kv : log.withSpans)
            withSpans[kv.first].insert(withSpans[kv.first].end(),
                                       kv.second.begin(), kv.second.end());
    }
    for (const auto &kv : withSpans)
        if (!plain[kv.first].empty())
            out.overheadPairs.push_back(
                {median(kv.second), median(plain[kv.first])});

    Metric hitP50{quantile(hitMs, 0.5), "ms"};
    Metric hitP99{quantile(hitMs, 0.99), "ms"};
    Metric rate{double(ok) / loopSeconds, "1/s"};
    out.endToEnd["setup_s"] = {median(setups), "s"};
    out.endToEnd["op_ms.p50"] = hitP50;
    out.endToEnd["op_ms.tail"] = hitP99;
    out.endToEnd["ops_per_s"] = rate;
    out.report["req_per_s"] = rate;
    out.report["hit_ms.p50"] = hitP50;
    out.report["hit_ms.p99"] = hitP99;
    out.report["miss_ms.p50"] = {quantile(missMs, 0.5), "ms"};
    out.report["hits"] = {double(hitMs.size()), "count"};
    out.report["misses"] = {double(missMs.size()), "count"};
    if (leftOut)
        out.notes.push_back(std::to_string(leftOut) +
                            " miss slots sent as hits (references "
                            "ran out)");
    return out;
}

} // namespace pfbench
