#include "cache.hpp"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "util/json.hpp"
#include "util/log.hpp"

namespace minnoc::dse {

std::uint64_t
fnv1a64(std::string_view data, std::uint64_t basis)
{
    std::uint64_t h = basis;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

namespace {

/** Fold a length delimiter into the chain so that moving bytes across
 *  an ingredient boundary cannot produce the same key. */
std::uint64_t
foldLength(std::uint64_t h, std::size_t n)
{
    char buf[24];
    const int len = std::snprintf(buf, sizeof buf, "|%zu|", n);
    return fnv1a64(std::string_view(buf, static_cast<std::size_t>(len)),
                   h);
}

} // namespace

std::string
jobKey(std::string_view patternBytes, std::string_view paramSignature)
{
    std::uint64_t h = fnv1a64(kCacheSalt);
    h = foldLength(h, patternBytes.size());
    h = fnv1a64(patternBytes, h);
    h = foldLength(h, paramSignature.size());
    h = fnv1a64(paramSignature, h);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

std::string
defaultCacheDir()
{
    if (const char *dir = std::getenv("MINNOC_CACHE_DIR"); dir && *dir)
        return dir;
    if (const char *xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
        return std::string(xdg) + "/minnoc";
    if (const char *home = std::getenv("HOME"); home && *home)
        return std::string(home) + "/.cache/minnoc";
    return ".minnoc-cache";
}

namespace {

/**
 * Pull the raw token following `"key":` out of a flat JSON object —
 * the only JSON this store ever writes, so a scanner beats a parser.
 */
std::optional<std::string>
rawField(const std::string &text, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    auto pos = text.find(needle);
    if (pos == std::string::npos)
        return std::nullopt;
    pos += needle.size();
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
        ++pos;
    if (pos >= text.size())
        return std::nullopt;
    if (text[pos] == '"') {
        const auto end = text.find('"', pos + 1);
        if (end == std::string::npos)
            return std::nullopt;
        return text.substr(pos + 1, end - pos - 1);
    }
    auto end = text.find_first_of(",}\n", pos);
    if (end == std::string::npos)
        return std::nullopt;
    auto token = text.substr(pos, end - pos);
    while (!token.empty() &&
           std::isspace(static_cast<unsigned char>(token.back())))
        token.pop_back();
    return token.empty() ? std::nullopt
                         : std::optional<std::string>(token);
}

bool
readU32(const std::string &text, const std::string &key,
        std::uint32_t &out)
{
    const auto raw = rawField(text, key);
    if (!raw)
        return false;
    char *end = nullptr;
    errno = 0;
    const auto v = std::strtoull(raw->c_str(), &end, 10);
    if (errno || *end != '\0' || v > 0xffffffffull)
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

bool
readI64(const std::string &text, const std::string &key,
        std::int64_t &out)
{
    const auto raw = rawField(text, key);
    if (!raw)
        return false;
    char *end = nullptr;
    errno = 0;
    const auto v = std::strtoll(raw->c_str(), &end, 10);
    if (errno || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
readDouble(const std::string &text, const std::string &key, double &out)
{
    const auto raw = rawField(text, key);
    if (!raw)
        return false;
    char *end = nullptr;
    errno = 0;
    const auto v = std::strtod(raw->c_str(), &end);
    if (errno || end == raw->c_str() || *end != '\0')
        return false;
    out = v;
    return true;
}

/** 16 lowercase hex digits of @p h (the record checksum format). */
std::string
fmtHash(std::uint64_t h)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

/**
 * The byte range the record checksum covers: everything from the
 * `"params"` line to the end of the file. The schema and checksum
 * lines above it are excluded so the checksum can be spliced in
 * without hashing itself.
 */
constexpr std::string_view kPayloadAnchor = "  \"params\"";

} // namespace

ResultCache::ResultCache(std::string dir, bool enabled)
    : _dir(dir.empty() ? defaultCacheDir() : std::move(dir)),
      _enabled(enabled)
{
}

std::string
ResultCache::recordPath(const std::string &key) const
{
    return _dir + "/" + key + ".json";
}

void
ResultCache::quarantine(const std::string &key, const char *why) const
{
    const auto path = recordPath(key);
    std::error_code ec;
    std::filesystem::rename(path, path + ".corrupt", ec);
    if (ec) {
        // Renaming failed (permissions, races): removing is the next
        // best way to stop the poisoned record from hitting again.
        std::filesystem::remove(path, ec);
    }
    warn("dse cache: quarantined corrupt record '", path, "' (", why,
         "); recomputing");
}

std::optional<JobMetrics>
ResultCache::load(const std::string &key,
                  std::string_view paramSignature) const
{
    if (!_enabled)
        return std::nullopt;
    std::ifstream in(recordPath(key));
    if (!in)
        return std::nullopt;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    // A record written under a different salt is a plain miss (that is
    // how invalidation works), never corruption.
    const auto schema = rawField(text, "schema");
    if (!schema || *schema != kCacheSalt)
        return std::nullopt;

    // Verify the payload checksum before trusting anything else the
    // record claims: a flipped bit anywhere in the payload quarantines
    // the file and reads as a miss, so the job is recomputed.
    const auto checksum = rawField(text, "checksum");
    const auto payloadPos = text.find(kPayloadAnchor);
    if (!checksum || checksum->size() != 16 ||
        payloadPos == std::string::npos) {
        quarantine(key, "missing checksum or payload");
        return std::nullopt;
    }
    const auto computed = fmtHash(
        fnv1a64(std::string_view(text).substr(payloadPos)));
    if (*checksum != computed) {
        quarantine(key, "checksum mismatch");
        return std::nullopt;
    }

    const auto params = rawField(text, "params");
    if (!params || *params != paramSignature)
        return std::nullopt; // hash collision guard: a true miss

    JobMetrics m;
    std::uint32_t met = 0;
    if (!readU32(text, "switches", m.switches) ||
        !readU32(text, "links", m.links) ||
        !readU32(text, "channels", m.channels) ||
        !readU32(text, "constraints_met", met) ||
        !readU32(text, "violations", m.violations) ||
        !readU32(text, "rounds", m.rounds) ||
        !readU32(text, "switch_area", m.switchArea) ||
        !readU32(text, "link_area", m.linkArea) ||
        !readU32(text, "proc_link_area", m.procLinkArea) ||
        !readI64(text, "exec_time", m.execTime) ||
        !readDouble(text, "avg_latency", m.avgLatency) ||
        !readDouble(text, "avg_hops", m.avgHops) ||
        !readDouble(text, "max_link_util", m.maxLinkUtil) ||
        !readDouble(text, "energy", m.energy)) {
        // Checksum verified but the fields do not parse: a record
        // written by a buggy or hostile producer. Same treatment.
        quarantine(key, "unparseable payload");
        return std::nullopt;
    }
    m.constraintsMet = met != 0;
    return m;
}

void
ResultCache::store(const std::string &key,
                   std::string_view paramSignature,
                   const JobMetrics &m) const
{
    if (!_enabled)
        return;
    std::error_code ec;
    std::filesystem::create_directories(_dir, ec);
    if (ec) {
        warn("dse cache: cannot create '", _dir, "': ", ec.message());
        return;
    }

    // The checksum covers the payload (params line through the final
    // brace); it is computed over the exact bytes written so the read
    // side can verify without re-canonicalizing.
    std::ostringstream payload;
    payload
        << "  \"params\": \"" << paramSignature << "\",\n"
        << "  \"switches\": " << m.switches << ",\n"
        << "  \"links\": " << m.links << ",\n"
        << "  \"channels\": " << m.channels << ",\n"
        << "  \"constraints_met\": " << (m.constraintsMet ? 1 : 0)
        << ",\n"
        << "  \"violations\": " << m.violations << ",\n"
        << "  \"rounds\": " << m.rounds << ",\n"
        << "  \"switch_area\": " << m.switchArea << ",\n"
        << "  \"link_area\": " << m.linkArea << ",\n"
        << "  \"proc_link_area\": " << m.procLinkArea << ",\n"
        << "  \"exec_time\": " << m.execTime << ",\n"
        << "  \"avg_latency\": " << json::fmtDouble(m.avgLatency) << ",\n"
        << "  \"avg_hops\": " << json::fmtDouble(m.avgHops) << ",\n"
        << "  \"max_link_util\": " << json::fmtDouble(m.maxLinkUtil) << ",\n"
        << "  \"energy\": " << json::fmtDouble(m.energy) << "\n"
        << "}\n";

    std::ostringstream oss;
    oss << "{\n"
        << "  \"schema\": \"" << kCacheSalt << "\",\n"
        << "  \"checksum\": \"" << fmtHash(fnv1a64(payload.str()))
        << "\",\n"
        << payload.str();

    // Write-then-rename: readers only ever see complete records. Each
    // writer gets its own temp file (pid + per-process sequence), so
    // writers racing on one key, in one process or several sharing the
    // directory, never truncate each other's bytes; they write identical
    // bytes (the pipeline is deterministic), so either rename winning
    // is fine.
    static std::atomic<std::uint64_t> tmpSeq{0};
    const auto path = recordPath(key);
    const auto tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                     std::to_string(tmpSeq.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            warn("dse cache: cannot write '", tmp, "'");
            return;
        }
        out << oss.str();
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("dse cache: cannot rename '", tmp, "': ", ec.message());
        std::filesystem::remove(tmp, ec);
    }
}

} // namespace minnoc::dse
