/**
 * @file
 * Remote lane transport: TCP plumbing that lets the coordinator
 * drive `minnoc serve` daemons as job backends.
 *
 * A remote lane speaks the serve NDJSON protocol: one `dse_shard` /
 * `phase_job` request per line, one reply per line.
 *
 * Scope: address parsing and connection establishment with bounded
 * exponential backoff. The lane state machine, which only ever writes
 * what a non-blocking socket takes, lives in the coordinator.
 */

#ifndef MINNOC_DIST_REMOTE_HPP
#define MINNOC_DIST_REMOTE_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace minnoc::dist {

/** One daemon address from `--hosts host:port,host:port,...`. */
struct HostSpec
{
    std::string host; ///< name or dotted quad
    std::uint16_t port = 0;

    /** `host:port`, the stable label used in stats and trace lanes. */
    std::string label() const
    {
        return host + ":" + std::to_string(port);
    }
};

/**
 * Parse a comma-separated `host:port` list. Empty input yields an
 * empty vector; any malformed entry (missing port, port outside
 * [1, 65535], empty host) is fatal() — a typoed fleet address must
 * never silently shrink the fleet.
 */
std::vector<HostSpec> parseHostList(const std::string &spec);

/**
 * Connect to @p host with up to @p attempts tries, exponential
 * backoff from 100 ms. Returns the connected fd, already in
 * non-blocking mode, or -1 with @p err filled.
 */
int connectHost(const HostSpec &host, std::string &err,
                int attempts = 5);

} // namespace minnoc::dist

#endif // MINNOC_DIST_REMOTE_HPP
