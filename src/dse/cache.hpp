/**
 * @file
 * Content-hashed on-disk result cache for exploration jobs.
 *
 * Every job is keyed by a 64-bit FNV-1a hash over three ingredients:
 * the serialized communication pattern (trace bytes), the canonical
 * parameter signature of every pipeline stage (methodology, simulator,
 * floorplanner, power model), and a code-version salt. Any change to
 * the pattern or a knob lands on a new key; bumping the salt when a
 * cost-model or algorithm change alters results invalidates the whole
 * store at once. Records live as one small JSON file per key under the
 * cache directory (default `~/.cache/minnoc`), written atomically via
 * rename, so concurrent explorers — threads or processes — never read
 * a half-written record. Doubles are stored with round-trip precision:
 * a warm run reproduces the cold run byte for byte.
 *
 * Records are crash-safe on the read side too: every record embeds an
 * FNV-1a checksum over its payload, verified on load. A record that
 * fails the checksum (bit rot, torn write through a crashed kernel,
 * hostile tampering) is quarantined — renamed to `<key>.json.corrupt`
 * so the evidence survives for inspection — and the load reports a
 * miss, so the caller transparently recomputes and re-stores a clean
 * record instead of returning garbage or crashing.
 */

#ifndef MINNOC_DSE_CACHE_HPP
#define MINNOC_DSE_CACHE_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "job.hpp"

namespace minnoc::dse {

/**
 * Code-version salt folded into every job key. Bump it whenever a
 * change to the methodology, simulator, floorplanner or power model
 * alters the numbers a job produces: old records then simply never
 * match again, which is the entire invalidation story. Bumped to -2
 * when the record format grew the payload checksum; to -3 when the
 * hierarchical large-N partitioning mode changed default-config
 * results for patterns above 64 processors.
 */
inline constexpr std::string_view kCacheSalt = "minnoc-dse-3";

/** 64-bit FNV-1a over @p data, seeded with @p basis for chaining. */
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t basis = 14695981039346656037ull);

/**
 * Compute the cache key (16 lowercase hex digits) of a job:
 * hash(salt || pattern bytes || parameter signature).
 */
std::string jobKey(std::string_view patternBytes,
                   std::string_view paramSignature);

/**
 * Platform cache directory: $MINNOC_CACHE_DIR, else
 * $XDG_CACHE_HOME/minnoc, else $HOME/.cache/minnoc, else a local
 * `.minnoc-cache` as the last resort.
 */
std::string defaultCacheDir();

/** On-disk JSON store of JobMetrics records, one file per key. */
class ResultCache
{
  public:
    /**
     * Open (and lazily create) the store under @p dir. An empty @p dir
     * selects defaultCacheDir(). A disabled cache never hits and never
     * stores.
     */
    explicit ResultCache(std::string dir, bool enabled = true);

    bool enabled() const { return _enabled; }
    const std::string &dir() const { return _dir; }

    /**
     * Load the record for @p key. Returns nullopt on a miss, an
     * unreadable file or a record whose embedded parameter signature
     * disagrees with @p paramSignature (hash-collision guard). A
     * present record that is not JSON, or of the current schema whose
     * payload checksum does not verify or whose fields do not read, is
     * quarantined (renamed to `<key>.json.corrupt`) and reported as a
     * miss so the caller recomputes.
     */
    std::optional<JobMetrics> load(const std::string &key,
                                   std::string_view paramSignature) const;

    /**
     * Persist @p metrics under @p key (atomic write-then-rename). The
     * parameter signature is embedded for the collision guard.
     */
    void store(const std::string &key, std::string_view paramSignature,
               const JobMetrics &metrics) const;

  private:
    std::string recordPath(const std::string &key) const;

    /**
     * Move a corrupt record out of the way (`<key>.json.corrupt`) so
     * it can never be served again but stays available for forensics.
     */
    void quarantine(const std::string &key, const char *why) const;

    std::string _dir;
    bool _enabled;
};

} // namespace minnoc::dse

#endif // MINNOC_DSE_CACHE_HPP
