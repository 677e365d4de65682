# CTest script: every bench rejects an unknown flag the way the tools do —
# "<bench>: <what>" on stderr and exit code 1, never an abort.
#
#   cmake -DBENCHES=<bench>|<bench>|... -P bench_usage_test.cmake
string(REPLACE "|" ";" benches "${BENCHES}")
list(LENGTH benches count)
if(count EQUAL 0)
  message(FATAL_ERROR "no benches given")
endif()
set(failures "")
foreach(bench ${benches})
  get_filename_component(name ${bench} NAME)
  execute_process(COMMAND ${bench} --bogus RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "${name}: " at)
  if(NOT rc STREQUAL "1" OR NOT at EQUAL 0)
    list(APPEND failures "${name} exited '${rc}' with stderr '${err}'")
  endif()
endforeach()
if(failures)
  string(REPLACE ";" "\n  " failures "${failures}")
  message(FATAL_ERROR "benches that mishandle --bogus:\n  ${failures}")
endif()
message(STATUS "all ${count} benches exit 1 on --bogus")
