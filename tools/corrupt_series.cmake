# Tampers with a valid series file — rewrites every per-window
# sim.coordinator.refreshes value — and checks that the trace checker's
# alerting mode (--series=) rejects the result with a nonzero exit: the
# re-derived windows no longer match the file. A series summary whose
# window count N becomes N.5 (which truncates back to N) must be rejected
# by the strict reader, naming the key. Driven by ctest
# (monitor_rejects_tampered_series).
#
# Expects: -DTRACE=<series trace> -DSERIES=<valid series file>
#          -DTRACECHECK=<binary> -DOUT=<scratch path>

file(READ ${SERIES} contents)
# Only window records carry `"sim.coordinator.refreshes":<int>`; the
# slo_rule records quote the name as a string value and the trailing
# series_summary uses the short field names, so neither matches.
string(REGEX REPLACE "\"sim\\.coordinator\\.refreshes\":[0-9]+"
       "\"sim.coordinator.refreshes\":999999" tampered "${contents}")
if(tampered STREQUAL contents)
  message(FATAL_ERROR "series file has no per-window refresh counts to tamper")
endif()
file(WRITE ${OUT} "${tampered}")

execute_process(COMMAND ${TRACECHECK} ${TRACE} --series=${OUT} --quiet
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(status EQUAL 0)
  message(FATAL_ERROR "tracecheck accepted a tampered series file:\n${out}${err}")
endif()
message(STATUS "tracecheck rejected tampered series (exit ${status})")

string(REGEX REPLACE "(\"type\":\"series_summary\",\"windows\":[0-9]+)"
       "\\1.5" fractional "${contents}")
if(fractional STREQUAL contents)
  message(FATAL_ERROR "series file has no series_summary windows count")
endif()
file(WRITE ${OUT} "${fractional}")
execute_process(COMMAND ${TRACECHECK} ${TRACE} --series=${OUT} --quiet
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(status EQUAL 0)
  message(FATAL_ERROR
    "tracecheck accepted a fractional window count:\n${out}${err}")
endif()
if(NOT err MATCHES "key 'windows' holds [0-9]+\\.5")
  message(FATAL_ERROR "diagnostic does not name the windows key:\n${err}")
endif()
message(STATUS "tracecheck rejected windows=N.5 (exit ${status})")

# The untouched file must still pass, so the rejection above is really
# about the tampering and not the invocation.
execute_process(COMMAND ${TRACECHECK} ${TRACE} --series=${SERIES} --quiet
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
    "tracecheck rejected the pristine series (exit ${status}):\n${out}${err}")
endif()
message(STATUS "pristine series still accepted (exit 0)")
