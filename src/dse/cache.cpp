#include "cache.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

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

/** 16 lowercase hex digits of @p h (the key and checksum format). */
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

/** Read one record field; a bool is stored as 1/0. */
template <class T>
bool
readRecordField(const json::Value &doc, const char *name, T &out,
                std::string &err)
{
    if constexpr (std::is_same_v<T, bool>) {
        std::uint32_t n = 0;
        const bool ok = json::readField(doc, name, n, err);
        out = n != 0;
        return ok;
    } else {
        return json::readField(doc, name, out, err);
    }
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
    return fmtHash(h);
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
    const auto doc = json::parse(text);
    if (!doc) {
        quarantine(key, "not JSON");
        return std::nullopt;
    }

    // A record written under a different salt is a plain miss (that is
    // how invalidation works), never corruption.
    std::string schema, checksum, params, err;
    if (!json::readField(*doc, "schema", schema, err) ||
        schema != kCacheSalt)
        return std::nullopt;

    // Verify the payload checksum before trusting anything else the
    // record claims: a flipped bit anywhere in the payload quarantines
    // the file and reads as a miss, so the job is recomputed.
    const auto payloadPos = text.find(kPayloadAnchor);
    if (!json::readField(*doc, "checksum", checksum, err) ||
        checksum.size() != 16 || payloadPos == std::string::npos) {
        quarantine(key, "missing checksum or payload");
        return std::nullopt;
    }
    if (checksum !=
        fmtHash(fnv1a64(std::string_view(text).substr(payloadPos)))) {
        quarantine(key, "checksum mismatch");
        return std::nullopt;
    }

    // Signatures hold no quote or backslash, so the parsed string is
    // the bytes store() wrote.
    if (!json::readField(*doc, "params", params, err) ||
        params != paramSignature)
        return std::nullopt; // hash collision guard: a true miss

    JobMetrics m;
    bool ok = true;
    forEachField(m, [&](const char *name, auto &v) {
        ok = ok && readRecordField(*doc, name, v, err);
    });
    if (!ok) {
        // Checksum verified but the fields do not parse: a record
        // written by a buggy or hostile producer. Same treatment.
        quarantine(key, "unparseable payload");
        return std::nullopt;
    }
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
    std::string payload =
        "  \"params\": \"" + std::string(paramSignature) + "\"";
    forEachField(m, [&](const char *name, auto v) {
        // `+v` prints constraints_met as 1/0, the record's layout.
        payload += ",\n  \"" + std::string(name) +
                   "\": " + json::fmtValue(+v);
    });
    payload += "\n}\n";

    std::ostringstream oss;
    oss << "{\n"
        << "  \"schema\": \"" << kCacheSalt << "\",\n"
        << "  \"checksum\": \"" << fmtHash(fnv1a64(payload)) << "\",\n"
        << payload;

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
