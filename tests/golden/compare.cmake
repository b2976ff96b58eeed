# Golden check for a matrix bench, run as a CTest via `cmake -P`.
#
#   cmake -DACTUAL=<BENCH_*.json> -DGOLDEN=<tests/golden/NAME.json>
#         -DOUT=<NAME.actual> -P compare.cmake
#
# Compares the modeled fields of every cell of an emv-bench-v1 file,
# in order, with the golden: workload, config, overheads, cycle
# pools, access ops, misses, walks and cycles per walk.  Host-time
# fields (ops, host_ns, ops_per_sec, host_ns_per_op, throughput) are
# left out.  Numbers compare as the 17-significant-digit text CMake's
# JSON reader prints for them, so equal text means equal doubles.
#
# On a mismatch the script names the first differing cell and field
# and writes the actual modeled fields to OUT in the golden's layout
# (one cell per line); copy OUT over the golden to accept the change.

foreach(var ACTUAL GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare.cmake: ${var} is required")
  endif()
endforeach()

set(FIELDS workload config overhead translation_overhead base_cycles
    translation_cycles fault_cycles vmexit_cycles shootdown_cycles
    access_ops l1_misses l2_misses walks cycles_per_walk)

file(READ "${ACTUAL}" actual)
file(READ "${GOLDEN}" golden)
string(JSON actual_cells LENGTH "${actual}" cells)
string(JSON golden_cells LENGTH "${golden}" cells)
string(JSON title GET "${actual}" title)

# Field NAME of the JSON object CELL, quoted when a string.
function(field_text out cell name)
  string(JSON type TYPE "${cell}" ${name})
  string(JSON value GET "${cell}" ${name})
  if(type STREQUAL "STRING")
    set(value "\"${value}\"")
  endif()
  set(${out} "${value}" PARENT_SCOPE)
endfunction()

# The actual file's modeled fields, one cell per line.
set(rows "")
set(first_diff "")
if(NOT actual_cells EQUAL golden_cells)
  string(CONCAT first_diff "cell count: golden ${golden_cells}, "
                "actual ${actual_cells}")
endif()
if(actual_cells GREATER 0)
  math(EXPR last "${actual_cells} - 1")
  foreach(cell RANGE ${last})
    # Pull each cell out once: fields are then read from the small
    # cell object instead of re-parsing the whole document.
    string(JSON actual_cell GET "${actual}" cells ${cell})
    set(golden_cell "")
    if(first_diff STREQUAL "" AND cell LESS golden_cells)
      string(JSON golden_cell GET "${golden}" cells ${cell})
    endif()
    set(members "")
    foreach(name ${FIELDS})
      field_text(value "${actual_cell}" ${name})
      list(APPEND members "\"${name}\": ${value}")
      if(first_diff STREQUAL "" AND NOT golden_cell STREQUAL "")
        field_text(expected "${golden_cell}" ${name})
        if(NOT value STREQUAL expected)
          string(JSON wl GET "${actual_cell}" workload)
          string(JSON cfg GET "${actual_cell}" config)
          string(CONCAT first_diff "cell ${cell} (${wl} ${cfg}) "
                 "field ${name}: golden ${expected}, actual ${value}")
        endif()
      endif()
    endforeach()
    list(JOIN members ", " row)
    if(cell LESS last)
      string(APPEND rows "    {${row}},\n")
    else()
      string(APPEND rows "    {${row}}\n")
    endif()
  endforeach()
endif()

if(first_diff STREQUAL "")
  message(STATUS "${ACTUAL}: ${actual_cells} cells match ${GOLDEN}")
  return()
endif()

file(WRITE "${OUT}"
     "{\n  \"title\": \"${title}\",\n  \"cells\": [\n${rows}  ]\n}\n")
message(FATAL_ERROR "${ACTUAL} differs from ${GOLDEN}\n"
                    "first difference: ${first_diff}\n"
                    "wrote ${OUT}; copy it over the golden to accept "
                    "the change")
