#include "repair/minimize.hh"

#include <algorithm>
#include <unordered_map>

#include "common/rng.hh"

namespace pmdb
{

namespace
{

/**
 * A deletion unit: either a single event or a matched Begin/End marker
 * pair. The minimizer deletes whole units, never half a section.
 */
struct Unit
{
    std::vector<std::size_t> eventIdx;
    /** Enclosing pair unit, or -1 at top level. */
    int parent = -1;
    /** Pinned units (ProgramEnd) survive every candidate. */
    bool pinned = false;
};

bool
isBegin(EventKind kind)
{
    return kind == EventKind::EpochBegin || kind == EventKind::StrandBegin;
}

bool
matches(EventKind begin, EventKind end)
{
    return (begin == EventKind::EpochBegin &&
            end == EventKind::EpochEnd) ||
           (begin == EventKind::StrandBegin &&
            end == EventKind::StrandEnd);
}

/**
 * Partition the trace into deletion units and record, for every event,
 * which unit owns it and which pair unit encloses it. Sections are
 * matched per thread with a stack; a mismatched or unclosed marker
 * degrades to a singleton unit (the trace was structurally odd to begin
 * with, so the minimizer just treats the marker as opaque).
 */
struct UnitIndex
{
    std::vector<Unit> units;
    /** Event index -> owning unit. */
    std::vector<int> ownerOf;

    explicit UnitIndex(const std::vector<Event> &events)
        : ownerOf(events.size(), -1)
    {
        // Per-thread stack of open section units (unit id + Begin kind).
        std::unordered_map<ThreadId,
                           std::vector<std::pair<int, EventKind>>>
            open;
        for (std::size_t i = 0; i < events.size(); ++i) {
            const Event &event = events[i];
            auto &stack = open[event.thread];
            const int enclosing = stack.empty() ? -1 : stack.back().first;
            if (isBegin(event.kind)) {
                Unit unit;
                unit.eventIdx.push_back(i);
                unit.parent = enclosing;
                units.push_back(std::move(unit));
                const int id = static_cast<int>(units.size() - 1);
                ownerOf[i] = id;
                stack.emplace_back(id, event.kind);
            } else if (event.kind == EventKind::EpochEnd ||
                       event.kind == EventKind::StrandEnd) {
                if (!stack.empty() &&
                    matches(stack.back().second, event.kind)) {
                    const int id = stack.back().first;
                    units[id].eventIdx.push_back(i);
                    ownerOf[i] = id;
                    stack.pop_back();
                } else {
                    addSingleton(i, enclosing, false);
                }
            } else {
                addSingleton(i, enclosing,
                             event.kind == EventKind::ProgramEnd);
            }
        }
    }

    void
    addSingleton(std::size_t eventIdx, int parent, bool pinned)
    {
        Unit unit;
        unit.eventIdx.push_back(eventIdx);
        unit.parent = parent;
        unit.pinned = pinned;
        units.push_back(std::move(unit));
        ownerOf[eventIdx] = static_cast<int>(units.size() - 1);
    }

    /**
     * Structural closure: @p kept plus every enclosing pair unit, so no
     * surviving event is orphaned outside its section markers.
     */
    std::vector<int>
    closure(const std::vector<int> &kept) const
    {
        std::vector<char> in(units.size(), 0);
        for (int id : kept) {
            for (int u = id; u != -1 && !in[u]; u = units[u].parent)
                in[u] = 1;
        }
        std::vector<int> out;
        for (std::size_t u = 0; u < units.size(); ++u) {
            if (in[u])
                out.push_back(static_cast<int>(u));
        }
        return out;
    }

    /** Event indices (trace order) covered by a closed unit set. */
    std::vector<std::size_t>
    eventsOf(const std::vector<int> &closed) const
    {
        std::vector<std::size_t> idx;
        for (int u : closed) {
            idx.insert(idx.end(), units[u].eventIdx.begin(),
                       units[u].eventIdx.end());
        }
        std::sort(idx.begin(), idx.end());
        return idx;
    }
};

/** ddmin search state shared between rounds. */
struct Search
{
    const std::vector<Event> &events;
    const UnitIndex &index;
    const ReplayOracle &oracle;
    const BugFingerprint &target;
    const MinimizeOptions &options;
    MinimizeStats &stats;
    /** kept-event-set hash -> "target still reported". */
    std::unordered_map<std::uint64_t, bool> verdicts;
    std::vector<int> pinned;

    bool
    budgetLeft() const
    {
        return oracle.replays() < options.maxReplays;
    }

    /**
     * Does the closed unit set @p closed (which must include pinned
     * units) still reproduce the target bug?
     */
    bool
    reproduces(const std::vector<int> &closed)
    {
        const std::vector<std::size_t> idx = index.eventsOf(closed);
        std::uint64_t hash = fnv1a(idx.data(),
                                   idx.size() * sizeof(idx[0]));
        hash = fnv1a(&hash, sizeof(hash)); // avoid the empty-set fixpoint
        if (auto it = verdicts.find(hash); it != verdicts.end()) {
            ++stats.cacheHits;
            return it->second;
        }
        std::vector<Event> candidate;
        candidate.reserve(idx.size());
        for (std::size_t i : idx)
            candidate.push_back(events[i]);
        const bool hit = oracle.replay(candidate).has(target);
        verdicts.emplace(hash, hit);
        return hit;
    }

    /** @p deletable plus pinned units, closed. */
    std::vector<int>
    close(const std::vector<int> &deletable) const
    {
        std::vector<int> kept = deletable;
        kept.insert(kept.end(), pinned.begin(), pinned.end());
        return index.closure(kept);
    }
};

/**
 * Classic ddmin over the deletable units. Returns the reduced deletable
 * set; pinned units are re-added (and the set closed) around every
 * oracle query.
 */
std::vector<int>
ddmin(Search &search, std::vector<int> current)
{
    std::size_t n = 2;
    while (current.size() >= 2 && search.budgetLeft()) {
        const std::size_t chunk =
            (current.size() + n - 1) / n; // ceil(size / n)
        bool reduced = false;

        // Try each subset alone.
        for (std::size_t c = 0; c * chunk < current.size(); ++c) {
            const auto first = current.begin() +
                               static_cast<std::ptrdiff_t>(c * chunk);
            const auto last =
                current.begin() +
                static_cast<std::ptrdiff_t>(
                    std::min(current.size(), (c + 1) * chunk));
            std::vector<int> subset(first, last);
            if (!search.budgetLeft())
                return current;
            if (search.reproduces(search.close(subset))) {
                current = std::move(subset);
                n = 2;
                reduced = true;
                break;
            }
        }
        if (reduced)
            continue;

        // Try each complement (skip for n == 2: complements are the
        // other subset, already tested above).
        if (n > 2) {
            for (std::size_t c = 0; c * chunk < current.size(); ++c) {
                std::vector<int> complement;
                complement.reserve(current.size());
                for (std::size_t i = 0; i < current.size(); ++i) {
                    if (i / chunk != c)
                        complement.push_back(current[i]);
                }
                if (!search.budgetLeft())
                    return current;
                if (search.reproduces(search.close(complement))) {
                    current = std::move(complement);
                    n = std::max<std::size_t>(n - 1, 2);
                    reduced = true;
                    break;
                }
            }
        }
        if (reduced)
            continue;

        if (n >= current.size())
            break;
        n = std::min(current.size(), 2 * n);
    }
    return current;
}

} // namespace

MinimizeResult
minimizeWitness(const LoadedTrace &trace, const BugFingerprint &target,
                const DebuggerConfig &config,
                const MinimizeOptions &options)
{
    MinimizeResult result;
    result.stats.originalEvents = trace.events.size();

    const UnitIndex index(trace.events);
    const ReplayOracle oracle(config, trace.names);
    Search search{trace.events, index,   oracle, target,
                  options,      result.stats, {},     {}};

    std::vector<int> deletable;
    for (std::size_t u = 0; u < index.units.size(); ++u) {
        if (index.units[u].pinned)
            search.pinned.push_back(static_cast<int>(u));
        else
            deletable.push_back(static_cast<int>(u));
    }

    if (!search.reproduces(search.close(deletable))) {
        result.reproduced = false;
        result.stats.replays = oracle.replays();
        return result;
    }
    result.reproduced = true;

    const std::vector<int> minimal = ddmin(search, std::move(deletable));
    for (std::size_t i : index.eventsOf(search.close(minimal)))
        result.events.push_back(trace.events[i]);

    result.stats.minimizedEvents = result.events.size();
    result.stats.replays = oracle.replays();
    return result;
}

} // namespace pmdb
