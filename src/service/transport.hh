/**
 * @file
 * Unix-domain-socket control plane: framed-message send/receive and
 * listen/connect helpers shared by the daemon and the client sink.
 */

#ifndef PMDB_SERVICE_TRANSPORT_HH
#define PMDB_SERVICE_TRANSPORT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hh"

namespace pmdb
{

/**
 * Bind and listen on a Unix-domain socket at @p path (any stale socket
 * file is removed first). Returns the listening fd, or -1 with
 * @p error filled.
 */
int listenUnix(const std::string &path, std::string *error = nullptr);

/**
 * Connect to the daemon's socket. Retries for up to @p timeout_ms so a
 * client racing daemon startup (the CI smoke test does) still binds.
 * Returns the connected fd, or -1 with @p error filled.
 */
int connectUnix(const std::string &path, int timeout_ms = 2000,
                std::string *error = nullptr);

/**
 * Largest control-plane payload either end accepts (64 MiB). The
 * receiver rejects a longer frame before allocating for it, so the
 * sender refuses to emit one. The Report frame is the only message
 * that can approach it.
 */
constexpr std::size_t maxMessageBytes = 64u << 20;

/**
 * Send one framed message; false on a broken peer, or without writing
 * anything when @p payload exceeds maxMessageBytes.
 */
bool sendMessage(int fd, MsgType type,
                 const std::vector<std::uint8_t> &payload);

/**
 * Receive one framed message, blocking until a full frame arrives.
 * False on EOF, a broken frame or a length above maxMessageBytes.
 */
bool recvMessage(int fd, MsgType *type,
                 std::vector<std::uint8_t> *payload);

/** True when a full recv on @p fd would not block right now. */
bool readable(int fd, int timeout_ms = 0);

/**
 * True when the peer has hung up or the socket errored — without
 * consuming any pending data. Used as a liveness probe while blocked
 * on something other than the socket itself.
 */
bool peerClosed(int fd);

} // namespace pmdb

#endif // PMDB_SERVICE_TRANSPORT_HH
