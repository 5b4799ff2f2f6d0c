/**
 * @file
 * Crash simulation and recovery: the cross-failure workflow.
 *
 * Builds a tiny persistent key-value log, explores every crash point
 * of a buggy publish (a committed key pointing at an unpersisted
 * value), runs the recovery program over each crash image, and shows
 * how the cross-failure semantic check catches the inconsistency —
 * plus the undo-log recovery path restoring a torn transaction.
 *
 *   $ ./build/examples/crash_recovery
 */

#include <cstdio>
#include <cstring>

#include "core/debugger.hh"
#include "crashsim/capture.hh"
#include "pmdk/pool.hh"
#include "pmdk/tx.hh"
#include "trace/runtime.hh"

int
main()
{
    using namespace pmdb;

    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    PmemPool pool(runtime, 1 << 20, "recovery.pool");

    // --- Part 1: cross-failure semantic bug -------------------------
    const Addr value = pool.alloc(64);
    const Addr key = pool.alloc(64);
    const std::uint64_t payload = 0xfeedface;

    // "Manually call the recovery program" (Section 7.3) at every
    // crash point of the publish: the session captures them from here
    // on, and exploration runs the verifier over each image a crash
    // there can leave.
    bool found = false;
    {
        CrashsimSession session;
        session.adopt(
            pool.device(),
            [=](const std::vector<std::uint8_t> &image) -> std::string {
                std::uint64_t k = 0, v = 0;
                std::memcpy(&k, image.data() + key, 8);
                std::memcpy(&v, image.data() + value, 8);
                if (k == 1 && v != payload) {
                    return "recovery reads key=1 but the value bytes "
                           "never reached the persistence domain";
                }
                return "";
            });

        // Buggy publish: the key commits before the value persists.
        pool.store<std::uint64_t>(value, payload); // never flushed!
        pool.store<std::uint64_t>(key, 1);
        pool.persist(key, 8);

        found = !session.explore(&debugger).findings.empty();
    }
    std::printf("Cross-failure check: %s\n",
                found ? "INCONSISTENT (bug reported)" : "consistent");

    // --- Part 2: undo-log recovery of a torn transaction ------------
    const Addr pair = pool.alloc(128);
    pool.store<std::uint64_t>(pair, 7);      // field a
    pool.store<std::uint64_t>(pair + 64, 7); // field b (own line)
    pool.persist(pair, 128);

    Transaction tx(pool);
    tx.begin();
    tx.addRange(pair, 8);
    tx.addRange(pair + 64, 8);
    pool.store<std::uint64_t>(pair, 8);
    pool.store<std::uint64_t>(pair + 64, 8);
    // CRASH here: no commit. Fence first so the log's writebacks land
    // (the pessimal torn state), then take the durable image. PMDebugger
    // reports this fence as a redundant epoch fence: it stands in for
    // the writebacks landing at the crash, not for program code.
    pool.fence();
    auto image = pool.device().persistedBytes();

    const auto rolled_back = TxRecovery::rollback(pool, image);
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, image.data() + pair, 8);
    std::memcpy(&b, image.data() + pair + 64, 8);
    std::printf("Undo-log recovery rolled back %zu entries; "
                "a=%llu b=%llu (expected 7/7)\n",
                rolled_back.size(), static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
    tx.abort();

    runtime.programEnd();
    std::printf("\nFinal bug report:\n%s", debugger.bugs().summary().c_str());
    return found && a == 7 && b == 7 ? 0 : 1;
}
