#include "advise/corpus.hh"

#include "common/parallel.hh"
#include "repair/oracle.hh"

namespace pmdb
{

namespace
{

/** Record, repair and site-attribute one grid member. */
TraceOutcome
adviseOneTrace(const BugCase &bug_case, const CaseParams &params,
               const CorpusSpec &spec)
{
    TraceOutcome outcome;
    outcome.label = params.label();

    const LoadedTrace trace = recordCaseTrace(bug_case, true, &params);
    outcome.traceEvents = trace.events.size();
    outcome.siteEvents = siteEventCounts(trace);

    BugFingerprint target;
    if (!caseTarget(bug_case, trace, &target))
        return outcome;
    outcome.targetPresent = true;
    outcome.target = target.toString();

    const DebuggerConfig config = debuggerConfigFor(bug_case);

    // Correctness targets repair faster on a minimal witness; the
    // performance rules must see the whole trace so the deletion
    // cascade counts every redundant occurrence, not just the one the
    // minimizer kept.
    LoadedTrace input;
    input.names = trace.names;
    input.events = trace.events;
    if (spec.minimizeFirst && isCorrectnessRule(bug_case.expected)) {
        MinimizeResult min =
            minimizeWitness(trace, target, config, spec.minimize);
        outcome.replays += min.stats.replays;
        if (min.reproduced) {
            outcome.minimizedEvents = min.stats.minimizedEvents;
            input.events = std::move(min.events);
        }
    }

    const RepairResult result =
        repairTrace(input, target, config, spec.repair);
    outcome.replays += result.replays;
    outcome.verified = result.verified;
    outcome.strategy = result.patch.strategy;
    if (!result.verified)
        return outcome;

    outcome.edits.reserve(result.patch.edits.size());
    for (const TraceEdit &edit : result.patch.edits) {
        SiteEdit site_edit;
        site_edit.site = resolveSite(trace, edit);
        site_edit.op = adviceOpOf(edit);
        site_edit.rule = edit.rule;
        site_edit.note = edit.note;
        outcome.edits.push_back(std::move(site_edit));
    }
    return outcome;
}

} // namespace

std::vector<CaseParams>
CorpusSpec::enumerate() const
{
    std::vector<CaseParams> grid;
    grid.reserve(seeds.size() * threads.size() * mixes.size());
    for (const std::uint64_t seed : seeds) {
        for (const int thread_count : threads) {
            for (const char mix : mixes) {
                CaseParams params;
                params.seed = seed;
                params.threads = thread_count;
                params.ycsbMix = mix;
                params.operations = operations;
                grid.push_back(params);
            }
        }
    }
    return grid;
}

AdviseReport
runAdviseCorpus(const BugCase &bug_case, const CorpusSpec &spec)
{
    const std::vector<CaseParams> grid = spec.enumerate();

    // Indexed fan-out: each trace writes into its own slot only, so the
    // merged vector — and everything derived from it — is independent
    // of the worker count.
    std::vector<TraceOutcome> outcomes(grid.size());
    parallelFor(grid.size(), spec.workers, [&](std::size_t at) {
        outcomes[at] = adviseOneTrace(bug_case, grid[at], spec);
    });

    AdviseReport report;
    report.caseName = bug_case.name;
    report.rule = toString(bug_case.expected);
    report.advisories = clusterAdvisories(outcomes);
    report.traces = std::move(outcomes);
    return report;
}

} // namespace pmdb
