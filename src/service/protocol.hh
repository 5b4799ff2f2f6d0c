/**
 * @file
 * Wire protocol of the out-of-process detection service.
 *
 * A client session uses two channels:
 *
 *  - a **control plane** over a Unix-domain socket carrying framed
 *    messages (MsgHeader + payload): handshake, interned-name sync,
 *    externally detected bugs, shutdown, and the final report;
 *  - a **data plane**: a shared-memory single-producer/single-consumer
 *    event ring (see spsc_ring.hh) through which the instrumented
 *    event stream flows without any per-event syscall.
 *
 * Name-sync ordering contract: the client sends InternName and waits
 * for NameAck *before* pushing the first ring event that references
 * the name. The daemon adds the name to the session's name table
 * before acknowledging, so the session's detector always knows a name
 * before it processes an event referencing it.
 *
 * All integers are host-endian (client and daemon share the machine —
 * they already share memory).
 */

#ifndef PMDB_SERVICE_PROTOCOL_HH
#define PMDB_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/bug.hh"
#include "core/config.hh"
#include "core/stats.hh"

namespace pmdb
{

/** Protocol version; bumped on any wire-incompatible change.
 *  v2: HelloBody gained the shared-pool membership fields.
 *  v3: Report carries stats instead of a rendered JSON document.
 *  v4: one slow-consumer policy (the client waits for ring credits):
 *      Hello drops the policy and spill path, Bye carries no payload
 *      and Report no drop count. */
constexpr std::uint32_t serviceProtocolVersion = 4;

/** Session identifier assigned by the daemon. */
using SessionId = std::uint32_t;

/** Control-plane message types. */
enum class MsgType : std::uint32_t
{
    /** client → daemon: open a session (HelloBody). */
    Hello = 1,
    /** daemon → client: session accepted (u32 sessionId). */
    Welcome = 2,
    /** client → daemon: interned name (u32 id, string). */
    InternName = 3,
    /** daemon → client: name recorded for the session (u32 id). */
    NameAck = 4,
    /** client → daemon: externally detected bug (packed BugReport). */
    ReportBug = 5,
    /** client → daemon: stream complete (no payload). */
    Bye = 6,
    /** daemon → client: final report (ReportBody: packed bugs, event
     *  accounting, merged stats); the client renders it. */
    Report = 7,
    /** either direction: fatal error (string). */
    Error = 8,
};

/** Framing header preceding every control-plane payload. */
struct MsgHeader
{
    std::uint32_t type = 0;
    std::uint32_t length = 0;
};

/** Append-only little serializer for variable-length payloads. */
class WireWriter
{
  public:
    template <typename T>
    void
    put(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const std::size_t at = buf_.size();
        buf_.resize(at + sizeof(T));
        std::memcpy(buf_.data() + at, &value, sizeof(T));
    }

    void
    putString(const std::string &text)
    {
        put(static_cast<std::uint32_t>(text.size()));
        const std::size_t at = buf_.size();
        buf_.resize(at + text.size());
        std::memcpy(buf_.data() + at, text.data(), text.size());
    }

    void reserve(std::size_t bytes) { buf_.reserve(bytes); }

    const std::vector<std::uint8_t> &bytes() const & { return buf_; }
    /** Hand the buffer over without copying it. */
    std::vector<std::uint8_t> bytes() && { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Cursor-based reader matching WireWriter. Reads fail-soft: ok()
 *  turns false on underflow and subsequent reads return zeros. */
class WireReader
{
  public:
    explicit WireReader(const std::vector<std::uint8_t> &buf)
        : buf_(buf)
    {
    }

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value{};
        if (pos_ + sizeof(T) > buf_.size()) {
            ok_ = false;
            return value;
        }
        std::memcpy(&value, buf_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return value;
    }

    std::string
    getString()
    {
        const auto len = get<std::uint32_t>();
        if (pos_ + len > buf_.size()) {
            ok_ = false;
            return {};
        }
        std::string text(reinterpret_cast<const char *>(buf_.data()) +
                             pos_,
                         len);
        pos_ += len;
        return text;
    }

    /**
     * Read an enum sent as a @p Wire integer. Peers are untrusted, so
     * a value past @p last (the enum's highest enumerator) fails the
     * reader instead of producing an out-of-range enum.
     */
    template <typename Wire, typename E>
    E
    getEnum(E last)
    {
        const auto raw = get<Wire>();
        if (raw > static_cast<Wire>(last)) {
            ok_ = false;
            return E{};
        }
        return static_cast<E>(raw);
    }

    bool ok() const { return ok_; }

    /** Unread bytes: bounds any reservation sized by a wire count. */
    std::size_t remaining() const { return buf_.size() - pos_; }

  private:
    const std::vector<std::uint8_t> &buf_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** Hello payload: everything the daemon needs to mirror the client's
 *  in-process detector configuration. */
struct HelloBody
{
    std::uint32_t version = serviceProtocolVersion;
    PersistencyModel model = PersistencyModel::Epoch;
    /** Order-spec text (OrderSpec::fromText grammar); may be empty. */
    std::string orderSpecText;
    /** Path of the client-created shared-memory ring file. */
    std::string ringPath;
    /**
     * Path of the multi-writer shared pool this session maps (empty for
     * ordinary single-writer sessions). Sessions announcing the same
     * path form a cross-session detection group: the daemon's
     * CrossprocEngine merges their event streams by global clock ticket
     * and runs the inter-writer rules when the whole group completes.
     */
    std::string sharedPoolPath;
    /** This session's writer id within the shared pool (1-based). */
    std::uint32_t sharedWriterId = 0;

    std::vector<std::uint8_t> serialize() const;
    static bool deserialize(const std::vector<std::uint8_t> &payload,
                            HelloBody *out);
};

/**
 * Final report payload: the session's verdict. The client
 * renders it (pmdb_run --connect --json feeds `bugs` to a
 * BugCollector and calls reportToJson with `stats`), so the verdict
 * crosses the socket once, in this compact form.
 */
struct ReportBody
{
    /** Unique sites in seq order; at equal seq, the detector's before
     *  the client-reported ones. */
    std::vector<BugReport> bugs;
    /** Events the daemon drained from the ring. */
    std::uint64_t eventsProcessed = 0;
    /**
     * Merged bookkeeping statistics. Only the fields reportToJson
     * prints travel, as raw integers (stores, flushes, fences, epochs,
     * the tree-node sample sum and count, tree reorganizations,
     * collective invalidations, records moved to the tree); the rest
     * arrive zero.
     */
    DebuggerStats stats;

    std::vector<std::uint8_t> serialize() const;
    static bool deserialize(const std::vector<std::uint8_t> &payload,
                            ReportBody *out);

    /** serialize() over borrowed parts: the daemon encodes a verdict
     *  in place instead of copying it into a ReportBody first. */
    static std::vector<std::uint8_t>
    encode(const std::vector<BugReport> &bugs,
           std::uint64_t eventsProcessed, const DebuggerStats &stats);
};

/** Smallest putBugReport encoding: two enum bytes, three u64s and two
 *  empty strings' u32 lengths. Bounds wire-count reservations. */
constexpr std::size_t minBugReportBytes = 2 + 3 * 8 + 2 * 4;

/** Serialize one BugReport into @p out (shared by ReportBug/Report). */
void putBugReport(WireWriter &out, const BugReport &bug);

/** Inverse of putBugReport; a malformed report fails @p in. */
BugReport getBugReport(WireReader &in);

} // namespace pmdb

#endif // PMDB_SERVICE_PROTOCOL_HH
