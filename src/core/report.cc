#include "core/report.hh"

#include "common/json.hh"

namespace pmdb
{

namespace
{

void
writeBugs(JsonWriter &json, const BugCollector &bugs)
{
    json.field("total_sites", bugs.total())
        .field("occurrences", bugs.occurrences())
        .key("by_type")
        .beginObject();
    for (int t = 0; t < bugTypeCount; ++t) {
        const auto type = static_cast<BugType>(t);
        if (const std::size_t n = bugs.countOf(type))
            json.field(toString(type), n);
    }
    json.endObject().key("bugs").beginArray();
    for (const BugReport &bug : bugs.bugs()) {
        json.beginObject()
            .field("type", toString(bug.type))
            .field("fingerprint", fingerprintOf(bug).toString())
            .field("start", bug.range.start)
            .field("end", bug.range.end)
            .field("seq", bug.seq)
            .field("cause",
                   bug.cause == DurabilityCause::MissingFlush
                       ? "missing-flush"
                       : bug.cause == DurabilityCause::MissingFence
                             ? "missing-fence"
                             : "n/a")
            .field("detail", bug.detail)
            .endObject();
    }
    json.endArray();
}

} // namespace

std::string
reportToJson(const BugCollector &bugs)
{
    JsonWriter json;
    json.beginObject();
    writeBugs(json, bugs);
    return json.endObject().str();
}

std::string
reportToJson(const BugCollector &bugs, const DebuggerStats &stats)
{
    JsonWriter json;
    json.beginObject();
    writeBugs(json, bugs);
    json.key("stats")
        .beginObject()
        .field("stores", stats.stores)
        .field("flushes", stats.flushes)
        .field("fences", stats.fences)
        .field("epochs", stats.epochs)
        .field("avg_tree_nodes_per_fence_interval",
               stats.avgTreeNodesPerFenceInterval())
        .field("tree_reorganizations", stats.tree.reorganizations)
        .field("collective_invalidations",
               stats.array.collectiveInvalidations)
        .field("records_moved_to_tree", stats.array.recordsMovedToTree)
        .endObject();
    return json.endObject().str();
}

} // namespace pmdb
