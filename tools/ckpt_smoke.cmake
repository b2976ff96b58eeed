# Checkpoint/resume smoke harness, run as a CTest via `cmake -P`.
#
#   cmake -DMODE=<killresume|exitcodes> -DEMVSIM=<path>
#         -DWORKDIR=<work dir> -P ckpt_smoke.cmake
#
# MODE=killresume  a run SIGKILLed mid-measurement and resumed from
#                  its checkpoint must emit stats JSON byte-identical
#                  to the uninterrupted control run, with and without
#                  audit=1.
# MODE=exitcodes   pins the emvsim exit-code contract: 0 completed,
#                  1 usage error, 2 terminal fault, 3 interrupted.

foreach(var MODE EMVSIM WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "ckpt_smoke.cmake: ${var} is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

# Small but representative run: memcached-style churn would also
# work, but gups keeps the smoke fast while still exercising remaps.
set(RUN_ARGS workload=gups config=DD scale=0.05
    ops=60000 warmup=20000 stats=0)

# Runs a command and checks its exit status.  EXPECT may be a number
# or "nonzero" (for the SIGKILL case, where CMake reports the signal
# as a non-numeric result string).
function(run_step name expect)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(expect STREQUAL "nonzero")
    if(rc STREQUAL "0")
      message(FATAL_ERROR "${name}: expected failure, got exit 0\n"
                          "stdout:\n${out}\nstderr:\n${err}")
    endif()
  elseif(NOT rc STREQUAL "${expect}")
    message(FATAL_ERROR "${name}: expected exit ${expect}, got "
                        "'${rc}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "${name}: exit '${rc}' as expected")
endfunction()

if(MODE STREQUAL "killresume")
  # Once with audit=1, which keeps the differential auditor live
  # across the resume and exports the restored machine.audit
  # counters, and once without, where neither run exports them.
  foreach(audit 1 0)
    set(tag "audit${audit}")
    run_step(${tag}_control 0
             ${EMVSIM} ${RUN_ARGS} audit=${audit}
             statsjson=${WORKDIR}/${tag}_control.json)

    # crashafter raises SIGKILL mid-measurement; the periodic
    # checkpoints written before the crash are the recovery point.
    run_step(${tag}_crashed nonzero
             ${EMVSIM} ${RUN_ARGS} audit=${audit}
             ckpt=${WORKDIR}/${tag}.ckpt ckptevery=25000
             crashafter=50000)
    if(NOT EXISTS "${WORKDIR}/${tag}.ckpt")
      message(FATAL_ERROR "${tag}: no checkpoint survived the crash")
    endif()

    run_step(${tag}_resumed 0
             ${EMVSIM} resume=${WORKDIR}/${tag}.ckpt stats=0
             statsjson=${WORKDIR}/${tag}_resumed.json)

    run_step(${tag}_identical 0
             ${CMAKE_COMMAND} -E compare_files
             ${WORKDIR}/${tag}_control.json
             ${WORKDIR}/${tag}_resumed.json)
  endforeach()

elseif(MODE STREQUAL "exitcodes")
  run_step(usage_error 1 ${EMVSIM} workload=gups bogus=1)

  run_step(terminal_fault 2
           ${EMVSIM} ${RUN_ARGS} faults=dram@30000 policy=failfast)

  run_step(interrupted 3
           ${EMVSIM} ${RUN_ARGS} ckpt=${WORKDIR}/stop.ckpt
           stopafter=40000)

  run_step(completed 0
           ${EMVSIM} resume=${WORKDIR}/stop.ckpt stats=0)

else()
  message(FATAL_ERROR "ckpt_smoke.cmake: unknown MODE '${MODE}'")
endif()
