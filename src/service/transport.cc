#include "service/transport.hh"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace pmdb
{

namespace
{

bool
failFd(std::string *error, const std::string &message)
{
    if (error)
        *error = message + ": " + std::strerror(errno);
    return false;
}

bool
fillAddr(const std::string &path, sockaddr_un *addr,
         std::string *error)
{
    if (path.size() >= sizeof(addr->sun_path)) {
        if (error)
            *error = "socket path too long: " + path;
        return false;
    }
    std::memset(addr, 0, sizeof(*addr));
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
    return true;
}

bool
sendAll(int fd, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    while (size) {
        const ssize_t n = ::send(fd, bytes, size, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        bytes += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
recvAll(int fd, void *data, std::size_t size)
{
    auto *bytes = static_cast<std::uint8_t *>(data);
    while (size) {
        const ssize_t n = ::recv(fd, bytes, size, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // peer closed
        bytes += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

int
listenUnix(const std::string &path, std::string *error)
{
    sockaddr_un addr;
    if (!fillAddr(path, &addr, error))
        return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        failFd(error, "socket");
        return -1;
    }
    std::remove(path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 16) != 0) {
        failFd(error, "bind/listen " + path);
        ::close(fd);
        return -1;
    }
    return fd;
}

int
connectUnix(const std::string &path, int timeout_ms, std::string *error)
{
    sockaddr_un addr;
    if (!fillAddr(path, &addr, error))
        return -1;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            failFd(error, "socket");
            return -1;
        }
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            return fd;
        }
        ::close(fd);
        // The daemon may still be binding; retry until the deadline.
        if (std::chrono::steady_clock::now() >= deadline) {
            failFd(error, "connect " + path);
            return -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

bool
sendMessage(int fd, MsgType type,
            const std::vector<std::uint8_t> &payload)
{
    // The peer would reject the frame, and above 4 GiB the u32 length
    // would wrap.
    if (payload.size() > maxMessageBytes)
        return false;
    MsgHeader header;
    header.type = static_cast<std::uint32_t>(type);
    header.length = static_cast<std::uint32_t>(payload.size());
    if (!sendAll(fd, &header, sizeof(header)))
        return false;
    return payload.empty() ||
           sendAll(fd, payload.data(), payload.size());
}

bool
recvMessage(int fd, MsgType *type, std::vector<std::uint8_t> *payload)
{
    MsgHeader header;
    if (!recvAll(fd, &header, sizeof(header)))
        return false;
    // A corrupt length would otherwise trigger a giant allocation.
    if (header.length > maxMessageBytes)
        return false;
    *type = static_cast<MsgType>(header.type);
    payload->resize(header.length);
    return header.length == 0 ||
           recvAll(fd, payload->data(), header.length);
}

bool
readable(int fd, int timeout_ms)
{
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    return ::poll(&pfd, 1, timeout_ms) > 0 &&
           (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
}

bool
peerClosed(int fd)
{
    // events == 0: POLLHUP/POLLERR/POLLNVAL are always reported, and
    // pending readable data does not make this fire.
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = 0;
    pfd.revents = 0;
    return ::poll(&pfd, 1, 0) > 0 &&
           (pfd.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
}

} // namespace pmdb
