# CTest script: run a bench binary with --json and validate the emitted
# document against the deepphi.bench.v1 schema shape. When GOLDEN names a
# committed golden document, every table whose clock is not "measured" must
# also match it cell by cell (simulated and deterministic numbers are the
# same on every run, SIMD tier and thread count).
#
#   cmake -DBENCH=<bench> -DCHECK=<deepphi_json_check> -DOUT=<json>
#         [-DGOLDEN=<golden json>] -P bench_json_test.cmake
execute_process(COMMAND ${BENCH} --json=${OUT} RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "bench run failed: ${bench_rc}")
endif()
execute_process(
  COMMAND ${CHECK} --require=schema --require=bench --require=tables
          --require=columns --require=rows --expect=deepphi.bench.v1 ${OUT}
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "bench json failed validation: ${check_rc}")
endif()
if(NOT GOLDEN)
  return()
endif()

file(READ ${GOLDEN} golden)
file(READ ${OUT} actual)

# Fails unless the JSON array at `path...` has the same length in both
# documents; sets `out` to that length.
function(same_length out what)
  string(JSON want LENGTH "${golden}" ${ARGN})
  string(JSON got LENGTH "${actual}" ${ARGN})
  if(NOT want EQUAL got)
    message(FATAL_ERROR "${what}: golden has ${want}, run has ${got}")
  endif()
  set(${out} ${want} PARENT_SCOPE)
endfunction()

same_length(n_tables "table count" tables)
set(pinned 0)
math(EXPR last_table "${n_tables} - 1")
foreach(t RANGE ${last_table})
  string(JSON clock GET "${golden}" tables ${t} clock)
  string(JSON run_clock GET "${actual}" tables ${t} clock)
  if(NOT "${clock}" STREQUAL "${run_clock}")
    message(FATAL_ERROR "table ${t}: golden clock ${clock}, run ${run_clock}")
  endif()
  string(JSON want GET "${golden}" tables ${t} columns)
  string(JSON got GET "${actual}" tables ${t} columns)
  if(NOT "${want}" STREQUAL "${got}")
    message(FATAL_ERROR "table ${t} columns: golden ${want}, run ${got}")
  endif()
  if("${clock}" STREQUAL "measured")
    continue()
  endif()
  math(EXPR pinned "${pinned} + 1")
  same_length(n_rows "table ${t} row count" tables ${t} rows)
  if(n_rows EQUAL 0)
    continue()
  endif()
  math(EXPR last_row "${n_rows} - 1")
  foreach(r RANGE ${last_row})
    same_length(n_cells "table ${t} row ${r} cell count" tables ${t} rows ${r})
    math(EXPR last_cell "${n_cells} - 1")
    foreach(c RANGE ${last_cell})
      string(JSON want GET "${golden}" tables ${t} rows ${r} ${c})
      string(JSON got GET "${actual}" tables ${t} rows ${r} ${c})
      if(NOT "${want}" STREQUAL "${got}")
        string(JSON column GET "${golden}" tables ${t} columns ${c})
        message(FATAL_ERROR "table ${t} (${clock}) row ${r} column "
                            "'${column}': golden ${want}, run ${got}")
      endif()
    endforeach()
  endforeach()
endforeach()
if(pinned EQUAL 0)
  message(FATAL_ERROR "${GOLDEN} pins no table: every table is measured")
endif()
message(STATUS "${pinned} of ${n_tables} tables match ${GOLDEN}")
