/**
 * @file
 * Load + chaos harness for the `minnoc serve` daemon.
 *
 * Connects to a running daemon and hammers it from many client
 * threads with a seeded mix of traffic: valid design/explore/ping
 * requests, coordinator-style dse_shard submissions (valid and with a
 * missing signature), malformed JSON, garbage bytes, oversized lines,
 * slow writers dribbling a request byte by byte, mid-request
 * disconnects, and tiny deadlines — optionally while a saboteur
 * thread flips bytes in the daemon's on-disk cache records. Afterwards it runs a
 * single-flight wave (N identical concurrent submissions) and checks
 * the daemon's own computation counter moved by exactly one, then
 * asserts the daemon is fully quiesced (queue empty, nothing in
 * flight) and still answering.
 *
 * Every outcome is accounted; the run FAILS (nonzero exit) on any
 * internal error, any missing response to a well-formed request, any
 * dedup or quiescence violation. The JSON artifact records
 * throughput, client-side latency quantiles, the outcome mix and the
 * assertion results.
 *
 *   serve_chaos --socket /tmp/minnoc.sock [--clients 8]
 *               [--requests 600] [--seed 1] [--corrupt-cache DIR]
 *               [--out chaos.json]
 */

#include <atomic>
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "dse/explorer.hpp"
#include "serve/client.hpp"
#include "serve/jobwire.hpp"
#include "serve/protocol.hpp"
#include "trace/nas_generators.hpp"
#include "util/json.hpp"

using namespace minnoc;

namespace {

struct Options
{
    std::string socketPath;
    int port = -1;
    unsigned clients = 8;
    unsigned requests = 600; ///< total across all clients
    std::uint64_t seed = 1;
    std::string corruptCacheDir;
    std::string outPath;
};

struct Tally
{
    std::mutex mutex;
    std::map<std::string, std::uint64_t> outcomes;
    std::vector<std::uint64_t> latenciesUs; ///< well-formed requests

    void
    count(const std::string &outcome)
    {
        const std::scoped_lock lock(mutex);
        ++outcomes[outcome];
    }

    void
    latency(std::uint64_t us)
    {
        const std::scoped_lock lock(mutex);
        latenciesUs.push_back(us);
    }
};

std::int64_t
nowUs()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
traceText(trace::Benchmark bench, std::uint32_t ranks,
          std::uint32_t iterations)
{
    trace::NasConfig cfg;
    cfg.ranks = ranks;
    cfg.iterations = iterations;
    cfg.seed = 1;
    const auto tr = trace::generateBenchmark(bench, cfg);
    std::ostringstream os;
    tr.save(os);
    return os.str();
}

bool
connect(serve::Client &client, const Options &opt)
{
    const bool ok = !opt.socketPath.empty()
                        ? client.connectUnix(opt.socketPath)
                        : client.connectTcp(opt.port);
    if (!ok)
        return false;
    // A hung daemon must fail the run, not wedge the harness: any
    // response taking over two minutes counts as a hang.
    timeval tv{120, 0};
    ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                 sizeof tv);
    return true;
}

std::string
designRequest(const std::string &id, const std::string &trace,
              std::uint64_t seed, std::int64_t deadlineMs)
{
    std::ostringstream os;
    os << "{\"id\": \"" << id << "\", \"cmd\": \"design\", \"trace\": \""
       << json::escape(trace) << "\", \"seed\": " << seed
       << ", \"restarts\": 2, \"deadline_ms\": " << deadlineMs << "}";
    return os.str();
}

std::string
exploreRequest(const std::string &id, const std::string &trace,
               std::int64_t deadlineMs)
{
    std::ostringstream os;
    os << "{\"id\": \"" << id
       << "\", \"cmd\": \"explore\", \"trace\": \""
       << json::escape(trace)
       << "\", \"degrees\": [4], \"restarts\": [2], \"vcs\": [2], "
          "\"unidirectional\": [0], \"deadline_ms\": "
       << deadlineMs << "}";
    return os.str();
}

/**
 * Coordinator-style one-point dse_shard with the signature the daemon
 * itself computes, so a well-formed submission is accepted (and its
 * result lands in the job cache for warm repeats). Omitting the
 * signature instead turns it into a hostile line the daemon must fail
 * closed.
 */
std::string
dseShardRequest(const std::string &id, const std::string &trace,
                std::uint64_t seed, bool withSig)
{
    dse::ExploreConfig cfg;
    cfg.grid.maxDegrees = {4};
    cfg.grid.restarts = {2};
    cfg.grid.seeds = {seed};
    cfg.grid.unidirectional = {0};
    cfg.grid.vcs = {2};
    std::ostringstream os;
    os << "{\"id\": \"" << id << "\", \"cmd\": \"dse_shard\","
          " \"attempt\": 1, \"job_index\": 0,";
    if (withSig)
        os << " \"sig\": \"" << serve::shardSignature(cfg) << "\",";
    os << " \"degrees\": [4], \"restarts\": [2], \"seeds\": [" << seed
       << "], \"unidirectional\": [0], \"vcs\": [2], \"vc_depth\": 4,"
          " \"phase_windows\": [0], \"deadline_ms\": 60000,"
          " \"trace\": \""
       << json::escape(trace) << "\"}";
    return os.str();
}

/** Send one line, read one reply, classify the outcome. */
void
roundTrip(serve::Client &client, Tally &tally, const std::string &line,
          bool wellFormed)
{
    const auto t0 = nowUs();
    if (!client.sendLine(line)) {
        tally.count(wellFormed ? "send_failed" : "conn_closed");
        client.close();
        return;
    }
    const auto replyLine = client.recvLine();
    if (!replyLine) {
        tally.count(wellFormed ? "no_response" : "conn_closed");
        client.close();
        return;
    }
    const auto reply = serve::parseReply(*replyLine);
    if (!reply) {
        tally.count("unparseable_reply");
        return;
    }
    if (wellFormed)
        tally.latency(static_cast<std::uint64_t>(nowUs() - t0));
    tally.count(reply->ok ? "ok" : reply->code);
}

void
clientLoop(const Options &opt, unsigned threadIdx, unsigned requests,
           Tally &tally, const std::vector<std::string> &traces)
{
    std::mt19937_64 rng(opt.seed * 7919 + threadIdx);
    serve::Client client;

    for (unsigned i = 0; i < requests; ++i) {
        if (!client.connected() && !connect(client, opt)) {
            tally.count("connect_failed");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
            continue;
        }
        std::string id = "c";
        id.append(std::to_string(threadIdx)).append("-").append(
            std::to_string(i));
        const auto &trace = traces[rng() % traces.size()];

        switch (rng() % 14) {
          case 0:
          case 1: // liveness probe
            roundTrip(client, tally,
                      "{\"id\": \"" + id + "\", \"cmd\": \"ping\"}",
                      true);
            break;
          case 2:
          case 3:
          case 4: // valid design (small key pool -> LRU/dedup traffic)
            roundTrip(client, tally,
                      designRequest(id, trace, 1 + rng() % 2, 60'000),
                      true);
            break;
          case 5: // valid explore
            roundTrip(client, tally,
                      exploreRequest(id, trace, 60'000), true);
            break;
          case 6: // malformed JSON
            roundTrip(client, tally,
                      "{\"id\": \"" + id + "\", \"cmd\": ", false);
            break;
          case 7: { // garbage bytes (newline-terminated)
            std::string garbage = "\x01\xff\xfe{]garbage";
            garbage += static_cast<char>(rng() % 256);
            roundTrip(client, tally, garbage, false);
            break;
          }
          case 8: { // unknown / misplaced fields
            roundTrip(client, tally,
                      "{\"id\": \"" + id +
                          "\", \"cmd\": \"design\", \"trace\": \"x\","
                          " \"bogus_knob\": 7}",
                      false);
            break;
          }
          case 9: { // slow writer: dribble a ping within the timeout
            const std::string line =
                "{\"id\": \"" + id + "\", \"cmd\": \"ping\"}\n";
            bool sent = true;
            for (std::size_t p = 0; p < line.size() && sent; p += 3) {
                sent = client.sendRaw(line.substr(p, 3));
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
            if (!sent) {
                tally.count("conn_closed");
                client.close();
                break;
            }
            const auto replyLine = client.recvLine();
            if (!replyLine) {
                tally.count("no_response");
                client.close();
                break;
            }
            const auto reply = serve::parseReply(*replyLine);
            tally.count(reply && reply->ok ? "ok"
                                           : "unparseable_reply");
            break;
          }
          case 10: // mid-request disconnect (no newline, then close)
            client.sendRaw("{\"id\": \"" + id +
                           "\", \"cmd\": \"design\", \"tra");
            client.close();
            tally.count("disconnected");
            break;
          case 11: // tiny deadline: timeout (or ok if cache-warm)
            roundTrip(client, tally,
                      exploreRequest(id, trace, 1), true);
            break;
          case 12: // valid coordinator-style dse_shard
            roundTrip(client, tally,
                      dseShardRequest(id, trace, 1 + rng() % 2, true),
                      true);
            break;
          case 13: // dse_shard without its mandatory signature
            roundTrip(client, tally,
                      dseShardRequest(id, trace, 1, false), false);
            break;
        }

        // Rarely, an oversized line: must be rejected, never absorbed.
        if (threadIdx == 0 && i == requests / 2) {
            if (client.connected() || connect(client, opt)) {
                std::string huge(serve::kMaxRequestBytes + 64, 'a');
                huge += '\n';
                // The daemon kills the connection at the limit; our
                // send may fail mid-way and the error response may be
                // lost to the reset. Only an OK reply is a failure.
                const bool sent = client.sendRaw(huge);
                const auto replyLine =
                    sent ? client.recvLine() : std::nullopt;
                const auto reply = replyLine
                                       ? serve::parseReply(*replyLine)
                                       : std::nullopt;
                if (reply && reply->ok)
                    tally.count("oversized_unrejected");
                else if (reply)
                    tally.count(reply->code);
                else
                    tally.count("oversized_rejected_by_close");
                client.close();
            }
        }
    }
}

/** Flip one byte in the middle of random cache records, repeatedly. */
void
corruptLoop(const std::string &dir, std::atomic<bool> &stop,
            std::atomic<std::uint64_t> &corruptions, std::uint64_t seed)
{
    namespace fs = std::filesystem;
    std::mt19937_64 rng(seed);
    while (!stop.load()) {
        std::vector<fs::path> records;
        std::error_code ec;
        for (const auto &entry : fs::directory_iterator(dir, ec))
            if (entry.path().extension() == ".json")
                records.push_back(entry.path());
        if (!records.empty()) {
            const auto &victim = records[rng() % records.size()];
            std::fstream f(victim,
                           std::ios::in | std::ios::out |
                               std::ios::binary);
            if (f) {
                f.seekg(0, std::ios::end);
                const auto size = static_cast<std::uint64_t>(f.tellg());
                if (size > 8) {
                    const auto pos = size / 2 + rng() % (size / 4);
                    f.seekg(static_cast<std::streamoff>(pos));
                    char c = 0;
                    f.get(c);
                    f.seekp(static_cast<std::streamoff>(pos));
                    f.put(static_cast<char>(c ^ 0x5a));
                    corruptions.fetch_add(1);
                }
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
}

std::optional<double>
statusNumber(const json::Value &status, const char *name)
{
    if (const auto *v = status.find(name); v && v->isNumber())
        return v->asNumber();
    return std::nullopt;
}

/** Fetch and parse the daemon's status document. */
std::optional<json::Value>
fetchStatus(const Options &opt)
{
    serve::Client client;
    if (!connect(client, opt))
        return std::nullopt;
    if (!client.sendLine("{\"id\": \"st\", \"cmd\": \"status\"}"))
        return std::nullopt;
    const auto line = client.recvLine();
    if (!line)
        return std::nullopt;
    const auto reply = serve::parseReply(*line);
    if (!reply || !reply->ok)
        return std::nullopt;
    return json::parse(reply->result);
}

std::uint64_t
quantile(std::vector<std::uint64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    return sorted[rank];
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--socket")
            opt.socketPath = value;
        else if (flag == "--port")
            opt.port = std::atoi(value.c_str());
        else if (flag == "--clients")
            opt.clients = static_cast<unsigned>(
                std::strtoul(value.c_str(), nullptr, 10));
        else if (flag == "--requests")
            opt.requests = static_cast<unsigned>(
                std::strtoul(value.c_str(), nullptr, 10));
        else if (flag == "--seed")
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--corrupt-cache")
            opt.corruptCacheDir = value;
        else if (flag == "--out")
            opt.outPath = value;
        else {
            std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
            return 2;
        }
    }
    if (opt.socketPath.empty() && opt.port < 0) {
        std::fprintf(stderr,
                     "usage: serve_chaos --socket PATH | --port N "
                     "[--clients C] [--requests R] [--seed S] "
                     "[--corrupt-cache DIR] [--out FILE]\n");
        return 2;
    }
    if (opt.clients == 0)
        opt.clients = 1;

    // Small, fast patterns; a few distinct ones so the mix hits both
    // cold computes and warm cache paths.
    const std::vector<std::string> traces = {
        traceText(trace::Benchmark::CG, 8, 1),
        traceText(trace::Benchmark::MG, 8, 1),
        traceText(trace::Benchmark::CG, 16, 1),
    };

    std::vector<std::string> problems;

    if (!fetchStatus(opt)) {
        std::fprintf(stderr,
                     "serve_chaos: daemon not reachable before load\n");
        return 1;
    }

    // --- Load + chaos phase ------------------------------------------
    Tally tally;
    std::atomic<bool> stopCorruption{false};
    std::atomic<std::uint64_t> corruptions{0};
    std::thread saboteur;
    if (!opt.corruptCacheDir.empty())
        saboteur = std::thread([&] {
            corruptLoop(opt.corruptCacheDir, stopCorruption,
                        corruptions, opt.seed);
        });

    const auto t0 = nowUs();
    {
        std::vector<std::thread> threads;
        const unsigned perClient =
            (opt.requests + opt.clients - 1) / opt.clients;
        for (unsigned c = 0; c < opt.clients; ++c)
            threads.emplace_back([&, c] {
                clientLoop(opt, c, perClient, tally, traces);
            });
        for (auto &t : threads)
            t.join();
    }
    const auto elapsedUs = nowUs() - t0;
    stopCorruption.store(true);
    if (saboteur.joinable())
        saboteur.join();

    // --- Single-flight wave ------------------------------------------
    const auto before = fetchStatus(opt);
    std::uint64_t computations0 = 0;
    if (before) {
        computations0 = static_cast<std::uint64_t>(
            statusNumber(*before, "computations").value_or(0));
    } else {
        problems.push_back("status unreachable before dedup wave");
    }

    // A trace no chaos category used, so the key is fresh to the LRU
    // and the flight table.
    const auto dedupTrace = traceText(trace::Benchmark::MG, 16, 1);
    constexpr unsigned kWave = 8;
    std::vector<std::optional<std::string>> waveResults(kWave);
    {
        std::vector<std::thread> threads;
        for (unsigned w = 0; w < kWave; ++w)
            threads.emplace_back([&, w] {
                serve::Client client;
                if (!connect(client, opt))
                    return;
                const auto req = exploreRequest(
                    "wave" + std::to_string(w), dedupTrace, 120'000);
                if (!client.sendLine(req))
                    return;
                const auto line = client.recvLine();
                if (!line)
                    return;
                const auto reply = serve::parseReply(*line);
                if (reply && reply->ok)
                    waveResults[w] = reply->result;
            });
        for (auto &t : threads)
            t.join();
    }
    unsigned waveOk = 0;
    bool waveIdentical = true;
    for (const auto &r : waveResults) {
        if (!r)
            continue;
        ++waveOk;
        if (*r != *waveResults[0])
            waveIdentical = false;
    }
    std::uint64_t computationsDelta = 0;
    const auto after = fetchStatus(opt);
    if (after) {
        computationsDelta =
            static_cast<std::uint64_t>(
                statusNumber(*after, "computations").value_or(0)) -
            computations0;
    }
    if (waveOk != kWave)
        problems.push_back("dedup wave: only " +
                           std::to_string(waveOk) + "/" +
                           std::to_string(kWave) + " ok responses");
    if (!waveIdentical)
        problems.push_back("dedup wave: responses not byte-identical");
    if (before && after && computationsDelta != 1)
        problems.push_back("dedup wave: expected 1 computation, got " +
                           std::to_string(computationsDelta));

    // --- Quiescence check --------------------------------------------
    // Cancellation is cooperative, so a job whose client vanished may
    // still be unwinding for a moment after the load ends. "Leaked"
    // means it NEVER finishes: poll with a generous deadline and only
    // flag jobs still in flight after that.
    double finalInFlight = -1, finalQueueDepth = -1;
    bool reachable = false;
    const auto quiesceDeadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
        if (const auto quiesced = fetchStatus(opt)) {
            reachable = true;
            finalInFlight =
                statusNumber(*quiesced, "in_flight").value_or(-1);
            finalQueueDepth =
                statusNumber(*quiesced, "queue_depth").value_or(-1);
            if (finalInFlight == 0 && finalQueueDepth == 0)
                break;
        }
        if (std::chrono::steady_clock::now() >= quiesceDeadline)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!reachable) {
        problems.push_back(
            "daemon unreachable after load (crash or hang)");
    } else {
        if (finalInFlight != 0)
            problems.push_back("leaked in-flight jobs after load");
        if (finalQueueDepth != 0)
            problems.push_back("non-empty queue after load");
    }

    // --- Outcome audit ------------------------------------------------
    std::uint64_t total = 0;
    {
        const std::scoped_lock lock(tally.mutex);
        for (const auto &[outcome, n] : tally.outcomes) {
            total += n;
            if (outcome == "internal" || outcome == "no_response" ||
                outcome == "send_failed" ||
                outcome == "unparseable_reply" ||
                outcome == "oversized_unrejected" ||
                outcome == "connect_failed")
                problems.push_back(outcome + " x" +
                                   std::to_string(n));
        }
    }

    std::sort(tally.latenciesUs.begin(), tally.latenciesUs.end());
    const auto p50 = quantile(tally.latenciesUs, 0.5);
    const auto p99 = quantile(tally.latenciesUs, 0.99);
    const double throughput =
        elapsedUs > 0 ? 1e6 * static_cast<double>(total) /
                            static_cast<double>(elapsedUs)
                      : 0.0;

    const bool pass = problems.empty();

    std::ostringstream artifact;
    artifact << "{\n  \"clients\": " << opt.clients
             << ",\n  \"requests\": " << total
             << ",\n  \"elapsed_us\": " << elapsedUs
             << ",\n  \"throughput_rps\": " << throughput
             << ",\n  \"latency_us\": {\"p50\": " << p50
             << ", \"p99\": " << p99 << "}"
             << ",\n  \"corruptions\": " << corruptions.load()
             << ",\n  \"outcomes\": {";
    {
        const std::scoped_lock lock(tally.mutex);
        bool first = true;
        for (const auto &[outcome, n] : tally.outcomes) {
            artifact << (first ? "" : ", ") << '"' << outcome
                     << "\": " << n;
            first = false;
        }
    }
    artifact << "}"
             << ",\n  \"dedup\": {\"responses_ok\": " << waveOk
             << ", \"identical\": "
             << (waveIdentical ? "true" : "false")
             << ", \"computations_delta\": " << computationsDelta
             << "}"
             << ",\n  \"final\": {\"in_flight\": " << finalInFlight
             << ", \"queue_depth\": " << finalQueueDepth << "}"
             << ",\n  \"problems\": [";
    for (std::size_t i = 0; i < problems.size(); ++i)
        artifact << (i ? ", " : "") << '"' << problems[i] << '"';
    artifact << "],\n  \"pass\": " << (pass ? "true" : "false")
             << "\n}\n";

    if (!opt.outPath.empty()) {
        std::ofstream os(opt.outPath);
        os << artifact.str();
    }
    std::fputs(artifact.str().c_str(), stdout);

    if (!pass) {
        for (const auto &p : problems)
            std::fprintf(stderr, "FAIL: %s\n", p.c_str());
        return 1;
    }
    return 0;
}
