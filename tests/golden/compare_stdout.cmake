# Golden check for a bench's stdout table, run as a CTest via `cmake -P`.
#
#   cmake -DBENCH=<binary> "-DARGS=a=1;b=2" -DGOLDEN=<tests/golden/NAME.txt>
#         -DOUT=<NAME.actual> -P compare_stdout.cmake
#
# Runs BENCH with ARGS in the current directory and compares its stdout
# with the golden byte for byte.  Progress lines go to stderr and are
# not compared.  On a mismatch the script names the first differing
# line and writes the actual stdout to OUT; copy OUT over the golden to
# accept an intended change.

foreach(var BENCH GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_stdout.cmake: ${var} is required")
  endif()
endforeach()

execute_process(COMMAND "${BENCH}" ${ARGS}
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE progress
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}\n${progress}")
endif()

file(READ "${GOLDEN}" golden)
if(actual STREQUAL golden)
  message(STATUS "${BENCH}: stdout matches ${GOLDEN}")
  return()
endif()

# Name the first differing line (1-based).
string(REPLACE "\n" ";" actual_lines "${actual}")
string(REPLACE "\n" ";" golden_lines "${golden}")
list(LENGTH actual_lines n_actual)
list(LENGTH golden_lines n_golden)
set(line 0)
set(first_diff "line count: golden ${n_golden}, actual ${n_actual}")
while(line LESS n_actual AND line LESS n_golden)
  list(GET actual_lines ${line} a)
  list(GET golden_lines ${line} g)
  if(NOT a STREQUAL g)
    math(EXPR shown "${line} + 1")
    set(first_diff "line ${shown}:\n  golden: ${g}\n  actual: ${a}")
    break()
  endif()
  math(EXPR line "${line} + 1")
endwhile()

file(WRITE "${OUT}" "${actual}")
message(FATAL_ERROR "${BENCH} stdout differs from ${GOLDEN}\n"
                    "first difference: ${first_diff}\n"
                    "wrote ${OUT}; copy it over the golden to accept "
                    "the change")
