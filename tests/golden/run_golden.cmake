# Golden-output driver for `ashtool status | trace | metrics`.
#
# Runs the real binary over a freshly generated remote-increment image,
# normalizes exactly the cycle-valued fields (which move whenever the cost
# model is tuned), and byte-compares everything else against the checked-in
# golden. The formatters make this easy on purpose: cycle/time values
# always carry a ` cyc` suffix in text, a `*_cyc` key in JSON, and ts/dur/
# cycles keys in the Chrome export — so the normalizer below is the full
# list, and any new un-suffixed number in the output is a pinned field.
#
# Usage (see tools/CMakeLists.txt):
#   cmake -DASHTOOL=<path> -DMODE=<mode> -DGOLDEN=<file> -DWORK_DIR=<dir>
#         [-DRECORD=1] -P run_golden.cmake
# Modes: status trace trace-json trace-chrome metrics metrics-json
#        queues queues-json offload offload-json rules rules-json
#        dump-translated
# RECORD=1 rewrites the golden instead of comparing (for intentional
# output changes; review the diff).

foreach(var ASHTOOL MODE GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")

# The image path is relative so the path echoed by `ashtool status` is
# stable no matter where the build tree lives.
set(image "remote-increment.ashv")
execute_process(
  COMMAND "${ASHTOOL}" gen remote-increment "${image}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ashtool gen failed (rc=${rc})")
endif()

if(MODE STREQUAL "status")
  set(cmd status ${image} 6)
elseif(MODE STREQUAL "trace")
  set(cmd trace ${image} 3)
elseif(MODE STREQUAL "trace-json")
  set(cmd trace ${image} 3 --json)
elseif(MODE STREQUAL "trace-chrome")
  set(cmd trace ${image} 3 --chrome)
elseif(MODE STREQUAL "metrics")
  set(cmd metrics ${image} 6)
elseif(MODE STREQUAL "metrics-json")
  set(cmd metrics ${image} 6 --json)
elseif(MODE STREQUAL "queues")
  set(cmd queues ${image} 44)
elseif(MODE STREQUAL "queues-json")
  set(cmd queues ${image} 44 --json)
elseif(MODE STREQUAL "offload")
  set(cmd offload ${image} 44)
elseif(MODE STREQUAL "offload-json")
  set(cmd offload ${image} 44 --json)
elseif(MODE STREQUAL "rules")
  # No image needed: the scenario is built in. No cycle values either, so
  # the normalizer passes the output through untouched.
  set(cmd rules kv)
elseif(MODE STREQUAL "rules-json")
  set(cmd rules kv --json)
elseif(MODE STREQUAL "dump-translated")
  # The translated form of the sandboxed image: the superblock JIT CFG +
  # emitted-form listing.
  set(image_sb "remote-increment-sb.ashv")
  execute_process(
    COMMAND "${ASHTOOL}" sandbox ${image} ${image_sb}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ashtool sandbox failed (rc=${rc})")
  endif()
  set(cmd dump-translated ${image_sb})
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()

execute_process(
  COMMAND "${ASHTOOL}" ${cmd}
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ashtool ${cmd} failed (rc=${rc})")
endif()

# --- the normalizer: cycle-valued fields only ---------------------------
# text:   t=1400 cyc   total=167 cyc   p50<=255 cyc   mean=157.0 cyc ...
# (the boundary stops `insns=32 cycles=...` matching ` cyc` as a prefix
# of `cycles` — insns counts are engine-deterministic and stay pinned)
string(REGEX REPLACE "=[0-9.]+ cyc($|[^a-z])" "=# cyc\\1" out "${out}")
# JSON:   "t_cyc":1400  "sum_cyc":942  "demux_cost_cyc":80 ...
string(REGEX REPLACE "_cyc\":[0-9]+" "_cyc\":#" out "${out}")
# Chrome: "ts":35.000  "dur":4.175  args "cycles":167
string(REGEX REPLACE "\"ts\":[0-9.]+" "\"ts\":#" out "${out}")
string(REGEX REPLACE "\"dur\":[0-9.]+" "\"dur\":#" out "${out}")
string(REGEX REPLACE "\"cycles\":[0-9]+" "\"cycles\":#" out "${out}")

file(WRITE "${WORK_DIR}/${MODE}.normalized" "${out}")

if(DEFINED RECORD)
  file(WRITE "${GOLDEN}" "${out}")
  message(STATUS "recorded ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "missing golden ${GOLDEN}; re-run with -DRECORD=1")
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/${MODE}.normalized" "${GOLDEN}"
    RESULT_VARIABLE ignored)
  message(FATAL_ERROR
      "golden mismatch for ashtool ${MODE}\n"
      "  actual: ${WORK_DIR}/${MODE}.normalized\n"
      "  golden: ${GOLDEN}\n"
      "diff the two files; if the change is intentional, regenerate with "
      "-DRECORD=1")
endif()
