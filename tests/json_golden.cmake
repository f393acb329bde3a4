# Diffs `copar-cli analyze SAMPLE --engine tmod --json` against GOLDEN.
#
#   cmake -DCLI=<copar-cli> -DSAMPLE=samples/x.cop -DGOLDEN=<file>
#         -DSOURCE_DIR=<repo root> -P tests/json_golden.cmake
#
# SAMPLE is relative to SOURCE_DIR, so the "file" member carries no
# checkout path. The phase timings and the peak RSS vary run to run: their
# values are masked before the diff; every other byte must match. With
# COPAR_UPDATE_GOLDENS set in the environment the script rewrites GOLDEN.
execute_process(COMMAND ${CLI} analyze ${SAMPLE} --engine tmod --json
                WORKING_DIRECTORY ${SOURCE_DIR}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "copar-cli exited ${rc}")
endif()
string(REGEX REPLACE "\"phases_ms\": {[^}]*}" "\"phases_ms\": {}" out "${out}")
string(REGEX REPLACE "\"peak_rss_bytes\": [0-9]+" "\"peak_rss_bytes\": 0" out "${out}")
if(DEFINED ENV{COPAR_UPDATE_GOLDENS})
  file(WRITE ${GOLDEN} "${out}")
  message(STATUS "rewrote ${GOLDEN}")
  return()
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR "JSON differs from ${GOLDEN}\n got: ${out}\nwant: ${want}")
endif()
