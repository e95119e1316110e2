#include "workloads/workloads.hh"

#include <bit>

#include "common/logging.hh"

namespace rvp
{

const std::vector<WorkloadSpec> &
allWorkloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"go", false, buildGo},           {"ijpeg", false, buildIjpeg},
        {"li", false, buildLi},           {"m88ksim", false, buildM88ksim},
        {"perl", false, buildPerl},       {"hydro2d", true, buildHydro2d},
        {"mgrid", true, buildMgrid},      {"su2cor", true, buildSu2cor},
        {"turb3d", true, buildTurb3d},
    };
    return specs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : allWorkloads())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

BuiltWorkload
buildWorkload(const std::string &name, InputSet input)
{
    const WorkloadSpec *spec = findWorkload(name);
    if (!spec)
        fatal("unknown workload '%s'", name.c_str());
    return spec->build(input);
}

std::uint64_t
doubleBits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

} // namespace rvp
