# Build stamps, run as a script at every build (cmake -P; driven from
# src/CMakeLists.txt, so every build that adds src/ runs it):
#
#   cmake -DSRC_DIR=<src> -DOUT_DIR=<dir> -DBUILD_TYPE=<type>
#         -DSANITIZER=<list> -P stamp.cmake
#
# It writes two headers under OUT_DIR/sim/:
#
#  - model_stamp.hh: modelFingerprint, the first 16 hex digits of a
#    SHA-256 over the model's sources. The file list: every *.cc, *.hh,
#    *.cmake and CMakeLists.txt under SRC_DIR, except those under
#    SRC_DIR/service/ (the service stores and serves results; it never
#    computes one). Each file adds its path relative to SRC_DIR and the
#    SHA-256 of its contents, in sorted path order. So any edit to a
#    listed file, a comment included, is a new model, and where the
#    checkout lies is not.
#  - build_stamp.hh: `git describe --always --dirty` of SRC_DIR's
#    checkout ("unknown" outside one), the build type and the
#    sanitizer ("none" without one).
#
# A header is rewritten only when its text changes, so a rebuild with
# no edit recompiles nothing, and a commit recompiles only what
# includes build_stamp.hh.

foreach(var SRC_DIR OUT_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "stamp.cmake: -D${var}= is required")
    endif()
endforeach()

function(write_if_changed path text)
    if(EXISTS "${path}")
        file(READ "${path}" old)
        if(old STREQUAL text)
            return()
        endif()
    endif()
    file(WRITE "${path}" "${text}")
endfunction()

file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}"
     "${SRC_DIR}/*.cc" "${SRC_DIR}/*.hh" "${SRC_DIR}/*.cmake"
     "${SRC_DIR}/CMakeLists.txt")
list(FILTER sources EXCLUDE REGEX "^service/")
list(SORT sources)
set(manifest "")
foreach(source IN LISTS sources)
    file(SHA256 "${SRC_DIR}/${source}" digest)
    string(APPEND manifest "${source} ${digest}\n")
endforeach()
string(SHA256 fingerprint "${manifest}")
string(SUBSTRING "${fingerprint}" 0 16 fingerprint)

write_if_changed("${OUT_DIR}/sim/model_stamp.hh"
"// Generated by src/stamp.cmake from the model's sources; do not edit.
#ifndef RVP_SIM_MODEL_STAMP_HH
#define RVP_SIM_MODEL_STAMP_HH

namespace rvp::stamp
{

inline constexpr char modelFingerprint[] = \"${fingerprint}\";

} // namespace rvp::stamp

#endif // RVP_SIM_MODEL_STAMP_HH
")

set(git "unknown")
find_package(Git QUIET)
if(GIT_FOUND)
    execute_process(
        COMMAND "${GIT_EXECUTABLE}" describe --always --dirty
        WORKING_DIRECTORY "${SRC_DIR}"
        RESULT_VARIABLE status
        OUTPUT_VARIABLE described
        OUTPUT_STRIP_TRAILING_WHITESPACE
        ERROR_QUIET)
    if(status EQUAL 0 AND NOT described STREQUAL "")
        set(git "${described}")
    endif()
endif()
if(NOT BUILD_TYPE)
    set(BUILD_TYPE "unknown")
endif()
if(NOT SANITIZER)
    set(SANITIZER "none")
endif()

write_if_changed("${OUT_DIR}/sim/build_stamp.hh"
"// Generated by src/stamp.cmake at build time; do not edit.
#ifndef RVP_SIM_BUILD_STAMP_HH
#define RVP_SIM_BUILD_STAMP_HH

namespace rvp::stamp
{

inline constexpr char gitDescribe[] = \"${git}\";
inline constexpr char buildType[] = \"${BUILD_TYPE}\";
inline constexpr char sanitizer[] = \"${SANITIZER}\";

} // namespace rvp::stamp

#endif // RVP_SIM_BUILD_STAMP_HH
")
