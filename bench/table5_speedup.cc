/**
 * @file
 * Table 5 reproduction: PMDebugger's speedup over Pmemcheck per
 * benchmark, both including instrumentation time ("With Instru.") and
 * with the instrumentation baseline subtracted ("W/O Instru."), which
 * isolates the bookkeeping advantage exactly as the paper's second
 * column does.
 */

#include <cmath>
#include <cstdio>

#include "bench/bench_util.hh"

namespace pmdb
{
namespace
{

int
benchMain()
{
    struct Row
    {
        const char *workload;
        std::size_t ops;
    };
    const std::vector<Row> rows = {
        {"b_tree", 50000},       {"c_tree", 50000},
        {"r_tree", 50000},       {"rb_tree", 50000},
        {"hashmap_tx", 50000},   {"hashmap_atomic", 50000},
        {"synth_strand", 50000}, {"memcached", 100000},
        {"redis", 100000},
    };

    TextTable table;
    table.setHeader({"benchmark", "with instru.", "w/o instru."});

    double geo_with = 1.0, geo_without = 1.0;
    for (const Row &row : rows) {
        const std::size_t ops = scaled(row.ops);
        const double native = runMedian(row.workload, "", ops).seconds;
        const double nulgrind =
            runMedian(row.workload, "nulgrind", ops).seconds;
        const double pmdebugger =
            runMedian(row.workload, "pmdebugger", ops).seconds;
        const double pmemcheck =
            runMedian(row.workload, "pmemcheck", ops).seconds;

        // "With instrumentation": straight ratio of debugging times.
        const double with_instru = pmemcheck / pmdebugger;
        // "Without instrumentation": subtract the shared
        // instrumentation baseline (Nulgrind) and compare bookkeeping
        // time only, floored at the native op cost.
        const double base = std::max(nulgrind - native, 0.0);
        const double pmd_book = std::max(pmdebugger - base, native * 0.1);
        const double pmc_book = std::max(pmemcheck - base, native * 0.1);
        const double without_instru = pmc_book / pmd_book;

        table.addRow({row.workload, fmtFactor(with_instru, 2),
                      fmtFactor(without_instru, 2)});
        geo_with *= with_instru;
        geo_without *= without_instru;
    }

    std::printf("=== Table 5: PMDebugger speedup over Pmemcheck ===\n%s\n",
                table.render().c_str());
    std::printf("Geometric mean: with instru. %s, w/o instru. %s\n",
                fmtFactor(std::pow(geo_with, 1.0 / rows.size()), 2)
                    .c_str(),
                fmtFactor(std::pow(geo_without, 1.0 / rows.size()), 2)
                    .c_str());
    std::printf("(paper: 2.2x avg over the micro-benchmarks, 4.67x "
                "memcached, 2.1x redis with\ninstrumentation; larger "
                "without. Our instrumentation substrate is far cheaper\n"
                "than Valgrind, so absolute factors compress. The "
                "paper's worst case,\nhashmap_tx, is not ours: our "
                "epoch ends skip its long-lived tree records\n(see "
                "EXPERIMENTS.md).)\n");
    return 0;
}

} // namespace
} // namespace pmdb

int
main()
{
    return pmdb::benchMain();
}
