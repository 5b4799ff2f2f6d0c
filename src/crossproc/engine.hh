/**
 * @file
 * Daemon-side cross-session detection engine.
 *
 * Sessions whose Hello announces a sharedPoolPath form a **group** per
 * pool. While each session streams, the daemon's workers pass every
 * drained frame through feed(), which retains just the shared-pool
 * events (Event::global != 0). When the last member of a group
 * completes, the engine merge-sorts the members' retained streams by
 * global fence-clock ticket — the pool guarantees tickets order the
 * actual shared-memory mutations — and replays the total order through
 * CrossRuleEngine. Per-session detection is untouched: the same events
 * still flow to each session's detector, and cross-writer verdicts are
 * reported per group, not attributed to any one session.
 */

#ifndef PMDB_CROSSPROC_ENGINE_HH
#define PMDB_CROSSPROC_ENGINE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "crossproc/rules.hh"
#include "trace/event.hh"

namespace pmdb
{

/** Verdict for one completed shared-pool group. */
struct CrossGroupResult
{
    /** Pool path the group's sessions announced. */
    std::string pool;
    /** Writer ids that joined, ascending. */
    std::vector<std::uint32_t> writers;
    /** Shared-pool events replayed across all members. */
    std::uint64_t eventsReplayed = 0;
    /** Inter-writer violations, in merged-replay detection order. */
    std::vector<CrossBug> bugs;

    /** JSON object used by pmdbd --json and pmdb_crossproc. */
    std::string toJson() const;
};

/** Groups shared-pool sessions and runs the cross-writer rules. */
class CrossprocEngine
{
  public:
    /** Session @p id announced membership of @p pool as @p writer. */
    void joinGroup(std::uint32_t id, const std::string &pool,
                   std::uint32_t writer);

    /**
     * Retain the shared-pool events of a drained frame. No-op for
     * sessions that never joined a group, so the ingest hot path pays
     * one hash probe per frame at most.
     */
    void feed(std::uint32_t id, const Event *events, std::size_t count);

    /**
     * Session @p id finished (served or aborted). When it is the last
     * open member of its group, the group is evaluated and its result
     * recorded.
     */
    void sessionComplete(std::uint32_t id);

    /** Verdicts of all evaluated groups, in completion order. */
    std::vector<CrossGroupResult> results() const;

    /** JSON array of all group verdicts. */
    std::string resultsJson() const;

  private:
    struct Member
    {
        std::uint32_t writer = 0;
        bool complete = false;
        std::vector<Event> events;
    };

    struct Group
    {
        /** Keyed by session id; ordered so merge ties (which cannot
         *  happen for distinct tickets) would still break predictably. */
        std::map<std::uint32_t, Member> members;
    };

    void evaluate(const std::string &pool, Group &group);

    mutable std::mutex mutex_;
    std::unordered_map<std::string, Group> groups_;
    std::unordered_map<std::uint32_t, std::string> sessionPool_;
    std::vector<CrossGroupResult> results_;
};

} // namespace pmdb

#endif // PMDB_CROSSPROC_ENGINE_HH
