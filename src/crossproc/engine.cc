#include "crossproc/engine.hh"

#include <algorithm>

#include "common/json.hh"
#include "telemetry/metrics.hh"

namespace pmdb
{

std::string
CrossGroupResult::toJson() const
{
    JsonWriter json;
    json.beginObject().field("pool", pool).key("writers").beginArray();
    for (const std::uint32_t writer : writers)
        json.value(writer);
    json.endArray()
        .field("events_replayed", eventsReplayed)
        .key("cross_bugs")
        .beginArray();
    for (const CrossBug &bug : bugs) {
        json.beginObject()
            .field("rule", toString(bug.type))
            .field("detail", bug.toString())
            .endObject();
    }
    return json.endArray().endObject().str();
}

void
CrossprocEngine::joinGroup(std::uint32_t id, const std::string &pool,
                           std::uint32_t writer)
{
    std::lock_guard<std::mutex> lock(mutex_);
    sessionPool_[id] = pool;
    groups_[pool].members[id].writer = writer;
}

void
CrossprocEngine::feed(std::uint32_t id, const Event *events,
                      std::size_t count)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessionPool_.find(id);
    if (it == sessionPool_.end())
        return;
    Member &member = groups_[it->second].members[id];
    for (std::size_t i = 0; i < count; ++i) {
        if (events[i].global != 0)
            member.events.push_back(events[i]);
    }
}

void
CrossprocEngine::sessionComplete(std::uint32_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessionPool_.find(id);
    if (it == sessionPool_.end())
        return;
    const std::string pool = it->second;
    auto groupIt = groups_.find(pool);
    if (groupIt == groups_.end())
        return;
    Group &group = groupIt->second;
    group.members[id].complete = true;
    const bool allDone = std::all_of(
        group.members.begin(), group.members.end(),
        [](const auto &entry) { return entry.second.complete; });
    if (!allDone)
        return;
    const bool telemetryOn = telemetry::enabled();
    const std::uint64_t start = telemetryOn ? telemetry::nowNs() : 0;
    evaluate(pool, group);
    if (telemetryOn) {
        telemetry::Registry::global()
            .histogram("crossproc.merge_ns")
            .record(telemetry::nowNs() - start);
        telemetry::Registry::global()
            .counter("crossproc.groups_evaluated")
            .add(1);
    }
    for (const auto &[member, info] : group.members)
        sessionPool_.erase(member);
    groups_.erase(groupIt);
}

void
CrossprocEngine::evaluate(const std::string &pool, Group &group)
{
    // Merge the members' retained streams into ticket order. Each
    // member's stream is already ticket-ascending (the pool draws
    // tickets in program order), so a k-way linear merge would do;
    // collect-and-sort keeps the code obvious and the cost is
    // evaluation-time only, off every ingest path.
    struct Tagged
    {
        std::uint32_t writer;
        const Event *event;
    };
    std::vector<Tagged> merged;
    std::size_t total = 0;
    for (const auto &[id, member] : group.members)
        total += member.events.size();
    merged.reserve(total);
    for (const auto &[id, member] : group.members) {
        for (const Event &event : member.events)
            merged.push_back({member.writer, &event});
    }
    std::sort(merged.begin(), merged.end(),
              [](const Tagged &a, const Tagged &b) {
                  return a.event->global < b.event->global;
              });

    CrossRuleEngine rules;
    for (const Tagged &entry : merged)
        rules.feed(entry.writer, *entry.event);
    rules.finish();

    CrossGroupResult result;
    result.pool = pool;
    for (const auto &[id, member] : group.members)
        result.writers.push_back(member.writer);
    std::sort(result.writers.begin(), result.writers.end());
    result.eventsReplayed = rules.eventsReplayed();
    result.bugs = rules.bugs();
    results_.push_back(std::move(result));
}

std::vector<CrossGroupResult>
CrossprocEngine::results() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return results_;
}

std::string
CrossprocEngine::resultsJson() const
{
    JsonWriter json;
    json.beginArray();
    for (const CrossGroupResult &group : results())
        json.raw(group.toJson());
    return json.endArray().str();
}

} // namespace pmdb

