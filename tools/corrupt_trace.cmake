# Appends an orphan recompute_start (duplicate id, no causing violation)
# to a valid trace and checks that polydab_tracecheck rejects the result
# with a nonzero exit; then gives the run summary a non-integral count,
# which the strict reader must reject naming the key. Driven by ctest
# (tracecheck_rejects_corrupt).
#
# Expects: -DTRACE=<valid trace> -DTRACECHECK=<binary> -DOUT=<scratch path>

file(READ ${TRACE} contents)
file(WRITE ${OUT} "${contents}")
file(APPEND ${OUT}
  "{\"type\":\"event\",\"id\":1,\"t\":0,\"kind\":\"recompute_start\"}\n")

execute_process(COMMAND ${TRACECHECK} ${OUT} --quiet
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(status EQUAL 0)
  message(FATAL_ERROR "tracecheck accepted a corrupted trace:\n${out}${err}")
endif()
message(STATUS "tracecheck rejected corrupt trace (exit ${status})")

# A count its integer field cannot hold is a parse error naming the key,
# never truncated: N.5 would truncate to the true count N and replay
# clean.
string(REGEX REPLACE "(\"type\":\"run_summary\"[^\n]*\"recomputations\":[0-9]+)"
       "\\1.5" fractional "${contents}")
if(fractional STREQUAL contents)
  message(FATAL_ERROR "trace has no run_summary recomputations to corrupt")
endif()
file(WRITE ${OUT} "${fractional}")
execute_process(COMMAND ${TRACECHECK} ${OUT} --quiet
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(status EQUAL 0)
  message(FATAL_ERROR
    "tracecheck accepted a fractional recomputations count:\n${out}${err}")
endif()
if(NOT err MATCHES "key 'recomputations' holds [0-9]+\\.5")
  message(FATAL_ERROR
    "diagnostic does not name the recomputations key:\n${err}")
endif()
message(STATUS "tracecheck rejected recomputations=N.5 (exit ${status})")
