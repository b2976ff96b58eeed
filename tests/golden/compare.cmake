# Golden check for a bench, run as a CTest via `cmake -P`.
#
#   cmake -DDIR=<bench output dir> -DGOLDEN=<tests/golden/BENCH.json>
#         -DOUT=<BENCH.actual> -P compare.cmake
#
# Compares DIR/BENCH_<slug>.json (<slug> is the golden's title as
# sim::slugify spells it) with the golden: every cell's modeled fields
# (no host-time fields) and every table's title, headers and rows as
# printed.  Numbers compare as the 17-significant-digit text CMake's
# JSON reader prints, so equal text means equal doubles.  On a
# mismatch it names the first difference (cell and field, or table,
# row and column) and writes the actual file to OUT in the golden's
# layout; copy OUT over the golden to accept the change.

foreach(var DIR GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare.cmake: ${var} is required")
  endif()
endforeach()

set(FIELDS workload config overhead translation_overhead base_cycles
    translation_cycles fault_cycles vmexit_cycles shootdown_cycles
    access_ops l1_misses l2_misses walks cycles_per_walk mmu_hash)

get_filename_component(bench "${GOLDEN}" NAME_WE)
file(READ "${GOLDEN}" golden)
string(JSON title GET "${golden}" title)
string(TOLOWER "${title}" slug)
string(REGEX REPLACE "[^a-z0-9]+" "_" slug "${slug}")
string(REGEX REPLACE "^_|_$" "" slug "${slug}")
set(ACTUAL "${DIR}/BENCH_${slug}.json")
if(NOT EXISTS "${ACTUAL}")
  message(FATAL_ERROR "${bench}: no ${ACTUAL} for the golden's title "
                      "\"${title}\"")
endif()
file(READ "${ACTUAL}" actual)

# Read element PATH... of the JSON document DOC into the caller's
# `value` as JSON text (strings quoted and escaped, numbers as CMake's
# reader prints them; a missing element as the bare word "missing",
# which no JSON value equals) and append it, found at PLACE, to the
# caller's compared values.  The lists hold ";" as "<sc>", so a cell
# that contains one stays one element.
function(take place doc)
  string(JSON type ERROR_VARIABLE missing TYPE "${doc}" ${ARGN})
  if(missing)
    set(value "missing")
  else()
    string(JSON value GET "${doc}" ${ARGN})
  endif()
  if(type STREQUAL "STRING")
    string(REPLACE "\\" "\\\\" value "${value}")
    string(REPLACE "\"" "\\\"" value "${value}")
    set(value "\"${value}\"")
  endif()
  string(REPLACE ";" "<sc>" escaped "${value}")
  list(APPEND values "${escaped}")
  string(REPLACE ";" "<sc>" place "${place}")
  list(APPEND where "${place}")
  set(value "${value}" PARENT_SCOPE)
  set(values "${values}" PARENT_SCOPE)
  set(where "${where}" PARENT_SCOPE)
endfunction()

# Append the JSON string array ARRAY, one string per column of HEADERS,
# to the caller's text as "[...]" and to its compared values, each
# found at PLACE and its column.
function(add_array place array headers)
  string(JSON n LENGTH "${headers}")
  math(EXPR last "${n} - 1")
  set(sep "[")
  foreach(c RANGE ${last})
    string(JSON column GET "${headers}" ${c})
    take("${place} column \"${column}\"" "${array}" ${c})
    string(APPEND text "${sep}${value}")
    set(sep ", ")
  endforeach()
  string(APPEND text "]")
  set(text "${text}" PARENT_SCOPE)
  set(values "${values}" PARENT_SCOPE)
  set(where "${where}" PARENT_SCOPE)
endfunction()

# Render DOC in the golden layout as <prefix>_text, and list every
# compared value in <prefix>_values with where it sits in
# <prefix>_where.
function(render prefix doc)
  set(values "")
  set(where "")
  take("title" "${doc}" title)
  set(text "{\n  \"title\": ${value},\n  \"cells\": [")
  string(JSON n LENGTH "${doc}" cells)
  set(sep "\n")
  if(n GREATER 0)
    math(EXPR last "${n} - 1")
    foreach(i RANGE ${last})
      # Read fields from the small cell object, not the whole file.
      string(JSON cell GET "${doc}" cells ${i})
      string(JSON wl GET "${cell}" workload)
      string(JSON cfg GET "${cell}" config)
      set(members "")
      foreach(name ${FIELDS})
        take("cell ${i} (${wl} ${cfg}) field ${name}" "${cell}" ${name})
        list(APPEND members "\"${name}\": ${value}")
      endforeach()
      list(JOIN members ", " members)
      string(APPEND text "${sep}    {${members}}")
      set(sep ",\n")
    endforeach()
    string(APPEND text "\n  ")
  endif()

  string(APPEND text "],\n  \"tables\": [")
  string(JSON n LENGTH "${doc}" tables)
  set(sep "\n")
  if(n GREATER 0)
    math(EXPR last "${n} - 1")
    foreach(t RANGE ${last})
      string(JSON table GET "${doc}" tables ${t})
      string(JSON table_title GET "${table}" title)
      set(at "table ${t} \"${table_title}\"")
      take("${at} title" "${table}" title)
      string(APPEND text "${sep}    {\"title\": ${value}, \"headers\": ")
      string(JSON headers GET "${table}" headers)
      add_array("${at} header" "${headers}" "${headers}")
      string(APPEND text ", \"rows\": [")
      string(JSON n_rows LENGTH "${table}" rows)
      set(row_sep "\n")
      if(n_rows GREATER 0)
        math(EXPR last_row "${n_rows} - 1")
        foreach(r RANGE ${last_row})
          string(JSON row GET "${table}" rows ${r})
          string(JSON row_name GET "${row}" 0)
          string(APPEND text "${row_sep}      ")
          add_array("${at} row ${r} (${row_name})" "${row}" "${headers}")
          set(row_sep ",\n")
        endforeach()
      endif()
      string(APPEND text "\n    ]}")
      set(sep ",\n")
    endforeach()
    string(APPEND text "\n  ")
  endif()
  string(APPEND text "]\n}\n")
  set(${prefix}_text "${text}" PARENT_SCOPE)
  set(${prefix}_values "${values}" PARENT_SCOPE)
  set(${prefix}_where "${where}" PARENT_SCOPE)
endfunction()

render(actual "${actual}")
render(golden "${golden}")
list(LENGTH actual_values n_actual)
if(actual_text STREQUAL golden_text)
  message(STATUS "${bench}: ${n_actual} values match ${GOLDEN}")
  return()
endif()

# Name the first value that differs, or else the first one only the
# actual file has.
list(LENGTH golden_values n_golden)
set(first_diff "golden has ${n_golden} values, actual ${n_actual}")
if(n_actual GREATER n_golden)
  list(GET actual_where ${n_golden} at)
  string(APPEND first_diff " (first extra: ${at})")
endif()
set(i 0)
while(i LESS n_actual AND i LESS n_golden)
  list(GET actual_values ${i} a)
  list(GET golden_values ${i} g)
  if(NOT a STREQUAL g)
    list(GET actual_where ${i} at)
    set(first_diff "${at}: golden ${g}, actual ${a}")
    break()
  endif()
  math(EXPR i "${i} + 1")
endwhile()
string(REPLACE "<sc>" ";" first_diff "${first_diff}")

file(WRITE "${OUT}" "${actual_text}")
message(FATAL_ERROR "${bench}: ${ACTUAL} differs from ${GOLDEN}\n"
                    "first difference: ${first_diff}\n"
                    "wrote ${OUT}; copy it over the golden to accept "
                    "the change")
