#include "remote.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/log.hpp"

namespace minnoc::dist {

std::vector<HostSpec>
parseHostList(const std::string &spec)
{
    std::vector<HostSpec> hosts;
    std::size_t start = 0;
    while (start <= spec.size()) {
        auto comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string entry = spec.substr(start, comma - start);
        start = comma + 1;
        if (entry.empty()) {
            if (spec.empty())
                break;
            fatal("dist: empty entry in host list '", spec, "'");
        }
        const auto colon = entry.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == entry.size())
            fatal("dist: host entry '", entry,
                  "' is not host:port");
        HostSpec h;
        h.host = entry.substr(0, colon);
        char *end = nullptr;
        const long port =
            std::strtol(entry.c_str() + colon + 1, &end, 10);
        if (!end || *end != '\0' || port < 1 || port > 65535)
            fatal("dist: host entry '", entry,
                  "' has an invalid port");
        h.port = static_cast<std::uint16_t>(port);
        hosts.push_back(std::move(h));
        if (comma == spec.size())
            break;
    }
    return hosts;
}

namespace {

int
tryConnect(const HostSpec &host, std::string &err)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    const std::string portStr = std::to_string(host.port);
    const int rc =
        ::getaddrinfo(host.host.c_str(), portStr.c_str(), &hints, &res);
    if (rc != 0) {
        err = "resolve " + host.label() + ": " + ::gai_strerror(rc);
        return -1;
    }
    int fd = -1;
    for (const addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        err = "connect " + host.label() + ": " + std::strerror(errno);
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0 && err.empty())
        err = "connect " + host.label() + ": no usable address";
    if (fd >= 0) {
        // Job requests are single lines; latency beats batching. No
        // write may block: the coordinator writes what poll() says the
        // socket takes.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
        err.clear();
    }
    return fd;
}

} // namespace

int
connectHost(const HostSpec &host, std::string &err, int attempts)
{
    // Bounded exponential backoff: a daemon that is restarting (or
    // racing the coordinator's launch) gets a few seconds to come up;
    // a dead address fails fast enough to fall back elsewhere.
    std::int64_t delayUs = 100'000;
    for (int i = 0; i < attempts; ++i) {
        const int fd = tryConnect(host, err);
        if (fd >= 0)
            return fd;
        if (i + 1 < attempts) {
            ::usleep(static_cast<useconds_t>(delayUs));
            delayUs = std::min<std::int64_t>(delayUs * 2, 1'600'000);
        }
    }
    return -1;
}

} // namespace minnoc::dist
