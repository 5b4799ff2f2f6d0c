#include "service/protocol.hh"

#include <algorithm>

namespace pmdb
{

std::vector<std::uint8_t>
HelloBody::serialize() const
{
    WireWriter out;
    out.put(version);
    out.put(static_cast<std::uint32_t>(model));
    out.putString(orderSpecText);
    out.putString(ringPath);
    out.putString(sharedPoolPath);
    out.put(sharedWriterId);
    return std::move(out).bytes();
}

bool
HelloBody::deserialize(const std::vector<std::uint8_t> &payload,
                       HelloBody *out)
{
    WireReader in(payload);
    out->version = in.get<std::uint32_t>();
    out->model = in.getEnum<std::uint32_t>(PersistencyModel::Strand);
    out->orderSpecText = in.getString();
    out->ringPath = in.getString();
    out->sharedPoolPath = in.getString();
    out->sharedWriterId = in.get<std::uint32_t>();
    return in.ok() && out->version == serviceProtocolVersion;
}

void
putBugReport(WireWriter &out, const BugReport &bug)
{
    out.put(static_cast<std::uint8_t>(bug.type));
    out.put(static_cast<std::uint8_t>(bug.cause));
    out.put(bug.range.start);
    out.put(bug.range.end);
    out.put(bug.seq);
    out.putString(bug.detail);
    out.putString(bug.context);
}

BugReport
getBugReport(WireReader &in)
{
    BugReport bug;
    bug.type = in.getEnum<std::uint8_t>(BugType::CrossFailureSemantic);
    bug.cause = in.getEnum<std::uint8_t>(DurabilityCause::MissingFence);
    bug.range.start = in.get<Addr>();
    bug.range.end = in.get<Addr>();
    bug.seq = in.get<SeqNum>();
    bug.detail = in.getString();
    bug.context = in.getString();
    return bug;
}

std::vector<std::uint8_t>
ReportBody::encode(const std::vector<BugReport> &bugs,
                   std::uint64_t eventsProcessed, const DebuggerStats &stats)
{
    // Size the buffer once: a verdict can run to tens of megabytes.
    std::size_t size = 4 + 8 + 9 * 8;
    for (const BugReport &bug : bugs)
        size += minBugReportBytes + bug.detail.size() + bug.context.size();
    WireWriter out;
    out.reserve(size);
    out.put(static_cast<std::uint32_t>(bugs.size()));
    for (const BugReport &bug : bugs)
        putBugReport(out, bug);
    out.put(eventsProcessed);
    out.put(stats.stores);
    out.put(stats.flushes);
    out.put(stats.fences);
    out.put(stats.epochs);
    out.put(stats.treeNodeSampleSum);
    out.put(stats.treeNodeSamples);
    out.put(stats.tree.reorganizations);
    out.put(stats.array.collectiveInvalidations);
    out.put(stats.array.recordsMovedToTree);
    return std::move(out).bytes();
}

std::vector<std::uint8_t>
ReportBody::serialize() const
{
    return encode(bugs, eventsProcessed, stats);
}

bool
ReportBody::deserialize(const std::vector<std::uint8_t> &payload,
                        ReportBody *out)
{
    WireReader in(payload);
    const auto count = in.get<std::uint32_t>();
    out->bugs.clear();
    // The count is untrusted: reserve no more than the bytes left
    // could hold.
    out->bugs.reserve(std::min<std::size_t>(
        count, in.remaining() / minBugReportBytes));
    for (std::uint32_t i = 0; i < count && in.ok(); ++i)
        out->bugs.push_back(getBugReport(in));
    out->eventsProcessed = in.get<std::uint64_t>();
    DebuggerStats &stats = out->stats;
    stats = DebuggerStats{};
    stats.stores = in.get<std::uint64_t>();
    stats.flushes = in.get<std::uint64_t>();
    stats.fences = in.get<std::uint64_t>();
    stats.epochs = in.get<std::uint64_t>();
    stats.treeNodeSampleSum = in.get<std::uint64_t>();
    stats.treeNodeSamples = in.get<std::uint64_t>();
    stats.tree.reorganizations = in.get<std::uint64_t>();
    stats.array.collectiveInvalidations = in.get<std::uint64_t>();
    stats.array.recordsMovedToTree = in.get<std::uint64_t>();
    return in.ok();
}

} // namespace pmdb
