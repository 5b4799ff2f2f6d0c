#include "advise/report.hh"

#include <cstdio>
#include <sstream>

#include "common/json.hh"

namespace pmdb
{

namespace
{

/** Locale-independent fixed-point rendering ("0.8571"). */
std::string
fixed4(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", value);
    return buf;
}

} // namespace

std::string
adviseReportToJson(const AdviseReport &report)
{
    JsonWriter json;
    json.beginObject()
        .field("version", report.version)
        .field("case", report.caseName)
        .field("rule", report.rule)
        .field("optimize", report.optimize)
        .field("min_confidence", report.minConfidence, 4)
        .key("traces")
        .beginArray();
    for (const TraceOutcome &trace : report.traces) {
        json.beginObject()
            .field("label", trace.label)
            .field("events", trace.traceEvents)
            .field("minimized_events", trace.minimizedEvents)
            .field("target_present", trace.targetPresent)
            .field("verified", trace.verified)
            .field("edits", trace.edits.size())
            .field("replays", trace.replays)
            .endObject();
    }
    json.endArray().key("advisories").beginArray();
    for (std::size_t i = 0; i < report.advisories.size(); ++i) {
        const FixAdvisory &advisory = report.advisories[i];
        json.beginObject()
            .field("rank", i + 1)
            .field("site", advisory.site)
            .field("op", toString(advisory.op))
            .field("rule", toString(advisory.rule))
            .field("confidence", advisory.confidence, 4)
            .field("confirmations", advisory.confirmations)
            .field("opportunities", advisory.opportunities)
            .field("counter_no_patch", advisory.counterNoPatch)
            .field("counter_unverified", advisory.counterUnverified)
            .field("edit_count", advisory.editCount)
            .field("saved_flushes", advisory.savedFlushes)
            .field("saved_fences", advisory.savedFences)
            .field("saved_logs", advisory.savedLogs)
            .field("headline", advisory.headline())
            .field("example", advisory.example)
            .endObject();
    }
    return json.endArray().endObject().str() + "\n";
}

std::string
adviseReportToText(const AdviseReport &report)
{
    std::ostringstream out;
    out << "advisory report (" << report.version << ") for case "
        << report.caseName << " [" << report.rule << "]"
        << (report.optimize ? " — optimization view" : "") << "\n";

    std::size_t recorded = 0;
    std::size_t reproduced = 0;
    std::size_t verified = 0;
    for (const TraceOutcome &trace : report.traces) {
        ++recorded;
        reproduced += trace.targetPresent;
        verified += trace.verified;
    }
    out << "corpus: " << recorded << " traces, " << reproduced
        << " reproduced the target, " << verified
        << " repaired and verified\n";
    for (const TraceOutcome &trace : report.traces) {
        out << "  [" << trace.label << "] " << trace.traceEvents
            << " events";
        if (trace.minimizedEvents)
            out << " (witness " << trace.minimizedEvents << ")";
        if (!trace.targetPresent)
            out << ", target not reproduced";
        else if (trace.verified)
            out << ", verified: " << trace.strategy;
        else
            out << ", repair NOT verified";
        out << "\n";
    }

    if (report.advisories.empty()) {
        out << "no advisory at or above confidence "
            << fixed4(report.minConfidence) << "\n";
        return out.str();
    }

    out << "advisories (ranked):\n";
    for (std::size_t i = 0; i < report.advisories.size(); ++i) {
        const FixAdvisory &advisory = report.advisories[i];
        out << "  #" << i + 1 << " " << advisory.headline()
            << " (confidence " << fixed4(advisory.confidence);
        if (advisory.counterNoPatch || advisory.counterUnverified) {
            out << ", counter-evidence " << advisory.counterNoPatch
                << " clean / " << advisory.counterUnverified
                << " unverified";
        }
        out << ")\n";
        if (advisory.performance) {
            out << "     saves ~" << advisory.savedFlushes
                << " flushes, " << advisory.savedFences << " fences, "
                << advisory.savedLogs << " log appends across the corpus\n";
        }
        if (!advisory.example.empty())
            out << "     e.g. " << advisory.example << "\n";
    }
    return out.str();
}

} // namespace pmdb
