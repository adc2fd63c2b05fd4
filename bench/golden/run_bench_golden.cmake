# Byte-identity gate for one deterministic bench.
#
# The simulation is deterministic, so a bench's stdout repeats byte for
# byte on any host. This driver runs the bench in its own working
# directory (bench_http_c10k, bench_scaling and others write BENCH_*.json
# into their cwd) and compares every byte of stdout with the checked-in
# golden. Nothing is normalized: a moved simulated number is a failure.
#
# Usage (see bench/CMakeLists.txt):
#   cmake -DBENCH=<path> -DGOLDEN=<file> -DWORK_DIR=<dir> [-DARGS=<a;b>]
#         [-DRECORD=1] -P run_bench_golden.cmake
# RECORD=1 (as -D or in the environment, e.g.
# `RECORD=1 ctest -R golden_bench`) rewrites the golden instead of
# comparing; a PR that changes simulated numbers on purpose re-records and
# shows the diff.

foreach(var BENCH GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_bench_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
get_filename_component(name "${BENCH}" NAME)

execute_process(
  COMMAND "${BENCH}" ${ARGS}
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${name} ${ARGS} failed (rc=${rc})\n${err}")
endif()

set(actual "${WORK_DIR}/${name}.out")
file(WRITE "${actual}" "${out}")

if(DEFINED RECORD OR "$ENV{RECORD}" STREQUAL "1")
  file(WRITE "${GOLDEN}" "${out}")
  message(STATUS "recorded ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "missing golden ${GOLDEN}; re-run with RECORD=1")
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR
      "${name} output differs from its golden\n"
      "  actual: ${actual}\n"
      "  golden: ${GOLDEN}\n"
      "diff the two files; if the change is intentional, re-record with "
      "RECORD=1 and show the diff in CHANGES.md")
endif()
