/**
 * @file
 * gtest printer for WorkloadSpec, shared by every test binary that
 * parameterizes over allWorkloads(). gtest would otherwise print the
 * spec's raw bytes, which hold a heap pointer, so the parameterized
 * ctest names would change with every test discovery.
 */

#ifndef RVP_TESTS_WORKLOAD_PRINT_HH
#define RVP_TESTS_WORKLOAD_PRINT_HH

#include <ostream>

#include "workloads/workloads.hh"

namespace rvp
{

/** Print a workload parameter by name (found by ADL). */
inline void
PrintTo(const WorkloadSpec &spec, std::ostream *os)
{
    *os << spec.name;
}

} // namespace rvp

#endif // RVP_TESTS_WORKLOAD_PRINT_HH
