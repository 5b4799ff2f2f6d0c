#include "service/remote_sink.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "service/transport.hh"
#include "telemetry/metrics.hh"

namespace pmdb
{

namespace
{

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

/** Time the publisher spent blocked on a full ring, resolved once. */
telemetry::Histogram &
blockStallNs()
{
    static telemetry::Histogram &histogram =
        telemetry::Registry::global().histogram(
            "client.sink.block_stall_ns");
    return histogram;
}

} // namespace

RemoteSink::~RemoteSink()
{
    disconnect();
}

bool
RemoteSink::connect(const Options &options, std::string *error)
{
    disconnect();
    options_ = options;
    if (!ring_.create(options_.ringPath, options_.ringSlots, error))
        return false;

    fd_ = connectUnix(options_.socketPath, options_.connectTimeoutMs,
                      error);
    if (fd_ < 0) {
        ring_.close();
        return false;
    }

    HelloBody hello;
    hello.model = options_.model;
    hello.orderSpecText = options_.orderSpecText;
    hello.ringPath = options_.ringPath;
    hello.sharedPoolPath = options_.sharedPoolPath;
    hello.sharedWriterId = options_.sharedWriterId;
    MsgType type;
    std::vector<std::uint8_t> payload;
    if (!sendMessage(fd_, MsgType::Hello, hello.serialize()) ||
        !recvMessage(fd_, &type, &payload) ||
        type != MsgType::Welcome) {
        disconnect();
        return fail(error, "service handshake failed");
    }
    WireReader in(payload);
    session_ = in.get<std::uint32_t>();
    namesSent_ = 0;
    pushed_ = 0;
    dead_ = false;
    batch_.setCapacity(std::min<std::uint32_t>(
        std::max<std::uint32_t>(options_.batchEvents, 1),
        options_.ringSlots));
    return true;
}

bool
RemoteSink::ensureNamesSent(std::uint32_t name_id)
{
    if (!names_ || name_id == noName)
        return true;
    while (namesSent_ <= name_id) {
        WireWriter out;
        out.put(namesSent_);
        out.putString(names_->name(namesSent_));
        MsgType type;
        std::vector<std::uint8_t> payload;
        // Wait for the ack: the daemon has added the name to the
        // session's name table, so the event referencing it may now
        // enter the ring.
        // Events already batched do not reference this name (it was
        // interned after them), so they may legally cross later.
        if (!sendMessage(fd_, MsgType::InternName, out.bytes()) ||
            !recvMessage(fd_, &type, &payload) ||
            type != MsgType::NameAck) {
            return false;
        }
        ++namesSent_;
    }
    return true;
}

/** Publish the accumulated batch as ring frames, waiting for credits
 *  whenever the ring is full. */
void
RemoteSink::flushBatch()
{
    const Event *events = batch_.data();
    std::size_t remaining = batch_.size();
    const bool telemetryOn = telemetry::enabled();
    // Out of credits: sleep until the consumer frees slots. The sleep
    // matters on a single-CPU box, where pure spinning would starve
    // the very consumer being waited on. A full ring that never drains
    // means the daemon is gone, so probe the control socket every
    // ~10ms and cut the stream rather than hang the instrumented
    // application forever.
    std::uint64_t stallStart = 0;
    int sleeps = 0;
    while (remaining) {
        const std::size_t accepted = ring_.tryPushBatch(events, remaining);
        if (accepted) {
            if (telemetryOn)
                ring_.stampPublish(telemetry::nowNs());
            pushed_ += accepted;
            events += accepted;
            remaining -= accepted;
        }
        if (!remaining)
            break;
        if (telemetryOn && !stallStart)
            stallStart = telemetry::nowNs();
        if (accepted) {
            sleeps = 0;
            continue;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        if (++sleeps >= 200) {
            sleeps = 0;
            if (peerClosed(fd_)) {
                dead_ = true;
                warn("client/sink", "daemon vanished while blocked on "
                     "a full ring; stream cut");
                batch_.clear();
                return;
            }
        }
    }
    if (stallStart)
        blockStallNs().record(telemetry::nowNs() - stallStart);
    batch_.clear();
}

void
RemoteSink::append(const Event &event)
{
    batch_.push(event);
    if (batch_.full())
        flushBatch();
}

void
RemoteSink::handle(const Event &event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || fd_ < 0)
        return;
    if (!ensureNamesSent(event.nameId)) {
        dead_ = true;
        warn("client/sink", "control plane failed; stream cut");
        return;
    }
    append(event);
}

void
RemoteSink::handleBatch(const Event *events, std::size_t count)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || fd_ < 0)
        return;
    for (std::size_t i = 0; i < count; ++i) {
        if (!ensureNamesSent(events[i].nameId)) {
            dead_ = true;
            warn("client/sink", "control plane failed; stream cut");
            return;
        }
        append(events[i]);
    }
}

void
RemoteSink::reportBug(const BugReport &report)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || fd_ < 0)
        return;
    WireWriter out;
    putBugReport(out, report);
    if (!sendMessage(fd_, MsgType::ReportBug, out.bytes()))
        dead_ = true;
}

bool
RemoteSink::finish(ReportBody *out, std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        return fail(error, "not connected");
    if (!dead_)
        flushBatch(); // the tail of the stream is still client-side
    if (dead_) {
        disconnect();
        return fail(error, "session died mid-stream");
    }
    ring_.markProducerDone();

    MsgType type;
    std::vector<std::uint8_t> payload;
    bool ok = sendMessage(fd_, MsgType::Bye, {}) &&
              recvMessage(fd_, &type, &payload) &&
              type == MsgType::Report &&
              ReportBody::deserialize(payload, out);
    if (!ok && error)
        *error = "service report exchange failed";
    disconnect();
    return ok;
}

void
RemoteSink::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    ring_.close();
}

} // namespace pmdb
