/**
 * @file
 * The nine SPEC95-analogue workloads the paper evaluates (go, ijpeg,
 * li, m88ksim, perl from CINT95; hydro2d, mgrid, su2cor, turb3d from
 * CFP95). The original Alpha binaries are unavailable, so each
 * workload is a synthetic program written against our IR that
 * reproduces the *code shape* and the *value-reuse class* the paper
 * attributes to its counterpart (see DESIGN.md for the substitution
 * argument):
 *
 *  - go:      branchy board-scanning integer code, modest reuse
 *  - ijpeg:   8x8 block quantization; repeating quant-table loads and
 *             many zero coefficients (constant locality)
 *  - li:      lisp-style cons-cell interpreter; pointer chasing, type
 *             tags with strong cross-register correlation, calls
 *  - m88ksim: CPU-simulator decode loop re-executing a small guest
 *             program; extremely high last-value and register reuse
 *  - perl:    hash+string processing; moderate reuse
 *  - hydro2d: 2D stencil over a smooth field; high FP value reuse
 *  - mgrid:   3D multigrid relaxation over a mostly-zero grid;
 *             constant-zero locality
 *  - su2cor:  small dense matrix-vector kernels with repeated
 *             coefficients; long initialization phase
 *  - turb3d:  FFT-like butterflies with repeating twiddle factors
 *
 * Each workload has a `train` input (used for profiling) and a `ref`
 * input (used for measurement), differing in seed and problem size,
 * matching the paper's profile-on-train / measure-on-ref methodology.
 */

#ifndef RVP_WORKLOADS_WORKLOADS_HH
#define RVP_WORKLOADS_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ir/ir.hh"
#include "isa/inst.hh"

namespace rvp
{

/** Which input the workload should be built with. */
enum class InputSet { Train, Ref };

/** A workload instance: IR plus its initial data image. */
struct BuiltWorkload
{
    std::string name;
    bool isFloatingPoint = false;
    IRFunction func;
    /** Initial memory image (address, value) pairs. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> data;
};

/** Static description of an available workload. */
struct WorkloadSpec
{
    std::string name;
    bool isFloatingPoint;
    BuiltWorkload (*build)(InputSet input);
};

/** All nine workloads, in the paper's presentation order. */
const std::vector<WorkloadSpec> &allWorkloads();

/** The workload called name, or null when there is none. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Build a workload by name; panics on unknown names. */
BuiltWorkload buildWorkload(const std::string &name, InputSet input);

// Individual generators (one translation unit each).
BuiltWorkload buildGo(InputSet input);
BuiltWorkload buildIjpeg(InputSet input);
BuiltWorkload buildLi(InputSet input);
BuiltWorkload buildM88ksim(InputSet input);
BuiltWorkload buildPerl(InputSet input);
BuiltWorkload buildHydro2d(InputSet input);
BuiltWorkload buildMgrid(InputSet input);
BuiltWorkload buildSu2cor(InputSet input);
BuiltWorkload buildTurb3d(InputSet input);

/** Helper shared by the generators: encode a double as image bits. */
std::uint64_t doubleBits(double value);

} // namespace rvp

#endif // RVP_WORKLOADS_WORKLOADS_HH
