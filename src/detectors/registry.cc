#include "detectors/registry.hh"

#include "detectors/pmdebugger_detector.hh"
#include "detectors/pmemcheck.hh"
#include "detectors/pmtest.hh"
#include "detectors/xfdetector.hh"

namespace pmdb
{

std::vector<std::string>
detectorNames()
{
    return {"pmdebugger", "pmemcheck", "pmtest", "xfdetector",
            "nulgrind"};
}

std::unique_ptr<Detector>
makeDetector(const std::string &name, const DebuggerConfig &config)
{
    if (name == "pmdebugger")
        return std::make_unique<PmDebuggerDetector>(config);
    if (name == "pmemcheck")
        return std::make_unique<PmemcheckDetector>();
    if (name == "pmtest")
        return std::make_unique<PmTestDetector>();
    if (name == "xfdetector") {
        XfDetectorConfig xf;
        xf.orderSpec = config.orderSpec;
        return std::make_unique<XfDetector>(xf);
    }
    if (name == "nulgrind")
        return std::make_unique<NulgrindDetector>();
    return nullptr;
}

} // namespace pmdb
