#include "workloads/crashsim_runner.hh"

#include <cstring>

#include "common/logging.hh"
#include "pmdk/pool.hh"
#include "pmdk/tx.hh"

namespace pmdb
{

namespace
{

/** One variant run: scenario under a capture session, then explore. */
CrashsimResult
runCaseVariant(const BugCase &bug_case, bool buggy,
               const CrashsimOptions &options, std::size_t batch_capacity,
               bool *single_image_found)
{
    PmRuntime runtime;
    runtime.setBatchCapacity(batch_capacity);

    DebuggerConfig config;
    config.model = bug_case.model;
    if (!bug_case.orderSpec.empty())
        config.orderSpec = OrderSpec::fromText(bug_case.orderSpec);
    PmDebugger debugger(std::move(config));
    runtime.attach(&debugger);

    CrashsimSession session(options);
    CaseEnv env{runtime};
    env.pmdebugger = &debugger;
    env.crashsim = &session;
    env.buggy = buggy;

    bug_case.scenario(env);
    runtime.programEnd();
    runtime.drain();
    runtime.detach(&debugger);

    if (single_image_found) {
        *single_image_found =
            debugger.bugs().hasAny(BugType::CrossFailureSemantic);
    }
    return session.explore();
}

} // namespace

CrashsimCaseOutcome
runCrashsimCase(const BugCase &bug_case, const CrashsimOptions &options,
                std::size_t batch_capacity)
{
    CrashsimCaseOutcome outcome;
    outcome.buggy = runCaseVariant(bug_case, true, options,
                                   batch_capacity,
                                   &outcome.singleImageFound);
    outcome.engineFound = !outcome.buggy.findings.empty();
    outcome.clean = runCaseVariant(bug_case, false, options,
                                   batch_capacity, nullptr);
    return outcome;
}

namespace
{

using Scenario = std::function<void(CaseEnv &)>;

constexpr std::size_t csPoolBytes = 1 << 20;

/**
 * Two invariant-linked fields (b == 1 implies a == 1) flushed under
 * ONE fence when buggy: only the partial landing {b} breaks the
 * invariant, and the final durable state is consistent. The correct
 * variant orders a's durability before b's store.
 */
Scenario
csPartialPair()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, csPoolBytes, "cs.pool");
        const Addr a = pool.alloc(64);
        const Addr b = pool.alloc(64);

        auto verify =
            [a, b](const std::vector<std::uint8_t> &image) -> std::string {
            std::uint64_t va = 0, vb = 0;
            std::memcpy(&va, image.data() + a, 8);
            std::memcpy(&vb, image.data() + b, 8);
            if (vb == 1 && va != 1)
                return "recovery reads b committed without its "
                       "prerequisite a";
            return "";
        };
        env.armCrossFailure(pool.device(), verify);

        if (env.buggy) {
            pool.store<std::uint64_t>(a, 1);
            pool.store<std::uint64_t>(b, 1);
            pool.flush(a, 8);
            pool.flush(b, 8);
            pool.fence(); // both pending under one fence
        } else {
            pool.store<std::uint64_t>(a, 1);
            pool.persist(a, 8); // a durable first
            pool.store<std::uint64_t>(b, 1);
            pool.persist(b, 8);
        }

        env.checkCrossFailure(pool.device(), verify);
    };
}

/**
 * Two-step counter update whose interior durable state (c1 == 2,
 * c2 == 1) is inconsistent but repaired by the second step: visible
 * only by crashing at the interior fence. The correct variant updates
 * both inside a transaction.
 */
Scenario
csIntermediateWindow()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, csPoolBytes, "cs.pool");
        const Addr c1 = pool.alloc(64);
        const Addr c2 = pool.alloc(64);
        pool.store<std::uint64_t>(c1, 1);
        pool.store<std::uint64_t>(c2, 1);
        pool.persist(c1, 8);
        pool.persist(c2, 8);

        auto verify =
            [c1, c2](const std::vector<std::uint8_t> &image) -> std::string {
            std::uint64_t v1 = 0, v2 = 0;
            std::memcpy(&v1, image.data() + c1, 8);
            std::memcpy(&v2, image.data() + c2, 8);
            if (v1 != v2)
                return "recovery reads unbalanced counters";
            return "";
        };
        env.armCrossFailure(pool.device(), verify);

        if (env.buggy) {
            pool.store<std::uint64_t>(c1, 2);
            pool.persist(c1, 8); // interior point: c1 == 2, c2 == 1
            pool.store<std::uint64_t>(c2, 2);
            pool.persist(c2, 8); // final state balanced again
        } else {
            Transaction tx(pool);
            tx.begin();
            tx.addRange(c1, 8);
            tx.addRange(c2, 8);
            pool.store<std::uint64_t>(c1, 2);
            pool.store<std::uint64_t>(c2, 2);
            tx.commit();
        }

        env.checkCrossFailure(pool.device(), verify);
    };
}

/**
 * A correct transactional update of an invariant-linked pair. The
 * verifier runs undo-log recovery before checking, so every reachable
 * image is consistent — except the partial landings inside the commit
 * barrier itself (data lands, log truncation fences away the undo
 * entries), which only a non-epoch-atomic sweep enumerates.
 */
Scenario
csLogTruncationWindow()
{
    return [](CaseEnv &env) {
        PmemPool pool(env.runtime, csPoolBytes, "cs.pool");
        const Addr a = pool.alloc(64);
        const Addr b = pool.alloc(64);
        pool.store<std::uint64_t>(a, 1);
        pool.store<std::uint64_t>(b, 1);
        pool.persist(a, 8);
        pool.persist(b, 8);

        const TxRecovery::TxLogRegion log = TxRecovery::logRegionOf(pool);
        auto verify =
            [a, b, log](const std::vector<std::uint8_t> &image)
            -> std::string {
            std::vector<std::uint8_t> recovered = image;
            TxRecovery::rollbackImage(log.base, log.size, recovered);
            std::uint64_t va = 0, vb = 0;
            std::memcpy(&va, recovered.data() + a, 8);
            std::memcpy(&vb, recovered.data() + b, 8);
            if (va != vb)
                return "recovery reads a torn pair after rollback";
            return "";
        };
        env.armCrossFailure(pool.device(), verify);

        // Same (correct) program for both variants: the window under
        // scrutiny is the substrate's, not the program's.
        Transaction tx(pool);
        tx.begin();
        tx.addRange(a, 8);
        tx.addRange(b, 8);
        pool.store<std::uint64_t>(a, 2);
        pool.store<std::uint64_t>(b, 2);
        tx.commit();

        env.checkCrossFailure(pool.device(), verify);
    };
}

} // namespace

const std::vector<BugCase> &
crashsimOnlyCases()
{
    static const std::vector<BugCase> cases = [] {
        std::vector<BugCase> list;
        int next_id = 1001; // clear of the 78 Table 6 ids

        auto add = [&](std::string name, Scenario scenario) {
            BugCase bug_case;
            bug_case.id = next_id++;
            bug_case.name = std::move(name);
            bug_case.expected = BugType::CrossFailureSemantic;
            bug_case.model = PersistencyModel::Epoch;
            bug_case.scenario = std::move(scenario);
            list.push_back(std::move(bug_case));
        };

        add("cs_partial_pair", csPartialPair());
        add("cs_intermediate_window", csIntermediateWindow());
        add("cs_log_truncation_window", csLogTruncationWindow());
        return list;
    }();
    return cases;
}

CrashsimResult
runCrashsimWorkload(const std::string &name, WorkloadOptions wl_options,
                    const CrashsimOptions &options, PmDebugger *debugger)
{
    auto workload = makeWorkload(name);
    if (!workload)
        fatal("crashsim: unknown workload " + name);

    PmRuntime runtime;
    CrashsimSession session(options);
    wl_options.crashsim = &session;
    workload->run(runtime, wl_options);
    runtime.drain();
    if (!session.hasVerifier())
        fatal("crashsim: workload " + name +
              " does not ship a recovery verifier");
    return session.explore(debugger);
}

} // namespace pmdb
