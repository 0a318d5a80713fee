# Invalid polydab_experiment invocations must fail fast with exit 2 and a
# diagnostic on stderr, before any simulation work; a valid invocation
# must still succeed. Driven by ctest (experiment_rejects_bad_args).
#
# Expects: -DEXPERIMENT=<binary> -DTRACECHECK=<polydab_tracecheck binary>

# Each bad case: "<label>;<arg...>" — cmake lists are ';'-separated, so
# multi-arg cases just add more elements after the label.
set(bad_cases
  "unknown key\;bogus-key=1"
  "typo'd shard key\;coord-shard=4"
  "malformed argument\;--queries"
  "coord-shards=0\;coord-shards=0"
  "negative coord-shards\;coord-shards=-2"
  "non-numeric coord-shards\;coord-shards=four"
  "coord-shards past INT_MAX\;coord-shards=4294967298"
  "ticks past INT_MAX\;ticks=2147483648"
  "bad shard policy\;shard-policy=roundrobin"
  "bad rates\;rates=median"
  "bad method\;method=greedy"
  "non-numeric ticks\;ticks=12x"
  "fault-drop above 1\;fault-drop=1.5"
  "negative fault-drop\;fault-drop=-0.1"
  "non-numeric fault-drop\;fault-drop=often"
  "fault-crash above 1\;fault-crash=2"
  "negative retx-timeout\;retx-timeout-s=-1"
  "zero retx-timeout\;retx-timeout-s=0"
  "non-finite lease\;lease-s=inf"
  "zero lease\;lease-s=0"
  "negative churn-rate\;churn-rate=-1"
  "non-finite churn-rate\;churn-rate=nan"
  "zero churn-lifetime\;churn-lifetime-s=0"
  "negative churn-zipf\;churn-zipf=-1"
  "churn-modify-prob above 1\;churn-modify-prob=1.5"
  "negative admit-budget\;admit-budget=-1"
  "bad admit-policy\;admit-policy=maybe"
  "retired maintenance key\;maintenance=rebuild"
  "negative aao-period\;aao-period=-5"
  "NaN aao-period\;aao-period=nan"
  "infinite aao-period\;aao-period=inf"
  "aao-period above INT_MAX\;aao-period=1e12"
  "churn with joint AAO\;churn-rate=0.1\;aao-period=60"
  "churn with fault injection\;churn-rate=0.1\;fault-drop=0.1"
  "ingest with canned traces\;ingest=a.csv\;traces=b.csv"
  "ingest with non-unit rates\;ingest=a.csv\;rates=mean"
  "series-window-s without series-out\;series-window-s=5"
  "slo without series-out\;slo=sim.coordinator.refreshes > 5"
  "series-breakdown without series-out\;series-breakdown=1"
  "zero series window\;series-out=s.jsonl\;series-window-s=0"
  "negative series window\;series-out=s.jsonl\;series-window-s=-5"
  "non-numeric series window\;series-out=s.jsonl\;series-window-s=1m"
  "bad series-breakdown\;series-out=s.jsonl\;series-breakdown=2"
  "slo rule without spaces\;series-out=s.jsonl\;slo=sim.coordinator.refreshes>5"
  "bad slo operator\;series-out=s.jsonl\;slo=sim.coordinator.refreshes != 5"
  "unknown slo metric\;series-out=s.jsonl\;slo=sim.bogus.metric > 5"
  "slo missing threshold\;series-out=s.jsonl\;slo=sim.coordinator.refreshes >"
  "zero slo for-count\;series-out=s.jsonl\;slo=sim.coordinator.refreshes > 5 for 0"
  "negative threads\;threads=-1"
  "non-numeric threads\;threads=two"
  "retired rt-queue-cap key\;rt-queue-cap=64"
  "rt-fail-at without threads\;rt-fail-at=3"
  "negative rt-fail-at\;threads=2\;rt-fail-at=-1"
  "retired solve-batch key\;solve-batch=8"
  "negative solve-cache\;solve-cache=-1"
  "non-numeric solve-cache\;solve-cache=big"
  "ckpt-interval-s without ckpt-out\;ckpt-interval-s=30"
  "zero ckpt-interval-s\;ckpt-out=c.ckpt\;ckpt-interval-s=0"
  "non-numeric ckpt-interval-s\;ckpt-out=c.ckpt\;ckpt-interval-s=soon"
  "coord-crash-at without durable outputs\;coord-crash-at=40"
  "coord-crash-at with ckpt-out only\;ckpt-out=c.ckpt\;coord-crash-at=40"
  "zero coord-crash-at\;ckpt-out=c.ckpt\;wal-out=w.wal\;coord-crash-at=0"
  "crash combined with restart\;ckpt-out=c.ckpt\;wal-out=w.wal\;coord-crash-at=40\;restart-from=c.ckpt"
  "restart-from without wal-out\;restart-from=c.ckpt"
  "merge-trace without restart-from\;merge-trace=t.jsonl"
  "merge-trace without trace-out\;restart-from=c.ckpt\;wal-out=w.wal\;merge-trace=t.jsonl"
  "recovery with series telemetry\;ckpt-out=c.ckpt\;series-out=s.jsonl"
  "recovery with joint AAO\;ckpt-out=c.ckpt\;aao-period=60"
  "recovery with rt fault injection\;ckpt-out=c.ckpt\;threads=2\;rt-fail-at=3"
  "flame-out on a crashed run\;ckpt-out=c.ckpt\;wal-out=w.wal\;coord-crash-at=40\;flame-out=f.folded"
)

foreach(case IN LISTS bad_cases)
  list(POP_FRONT case label)
  # Base args first: a repeated key keeps its last value, so the bad case
  # must come after them to stay in effect.
  execute_process(COMMAND ${EXPERIMENT} queries=2 items=4 ticks=80 ${case}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR
      "experiment did not reject ${label} ('${case}'): exit ${status}\n"
      "${out}${err}")
  endif()
  if(err STREQUAL "")
    message(FATAL_ERROR
      "experiment rejected ${label} ('${case}') silently (no stderr)")
  endif()
  message(STATUS "rejected ${label} (exit 2)")
endforeach()

# Sanity: a valid invocation with the same spellings still runs.
execute_process(COMMAND ${EXPERIMENT} queries=2 items=4 ticks=80
                coord-shards=2 shard-policy=hash
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "valid invocation failed (exit ${status}):\n${out}${err}")
endif()
message(STATUS "valid invocation accepted (exit 0)")

# A threaded invocation exercising every rt knob end to end (the
# rt-fail-at=0 spelling is the documented "never" value).
execute_process(COMMAND ${EXPERIMENT} queries=2 items=4 ticks=80
                threads=2 rt-fail-at=0
                coord-shards=2 shard-policy=hash
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
    "threaded invocation failed (exit ${status}):\n${out}${err}")
endif()
message(STATUS "threaded invocation accepted (exit 0)")

# A memoized solve-engine invocation (docs/SOLVER.md), the cache riding
# on the threaded runtime, and the cache under the recovery knobs.
execute_process(COMMAND ${EXPERIMENT} queries=2 items=4 ticks=80
                solve-cache=64
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
    "solve-engine invocation failed (exit ${status}):\n${out}${err}")
endif()
execute_process(COMMAND ${EXPERIMENT} queries=2 items=4 ticks=80
                threads=2 solve-cache=64
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
    "threaded solve-cache invocation failed (exit ${status}):\n${out}${err}")
endif()
# Checkpoint files are append-only; start from an empty one.
file(REMOVE ${CMAKE_CURRENT_BINARY_DIR}/cli_cache.ckpt)
execute_process(COMMAND ${EXPERIMENT} queries=2 items=4 ticks=80
                solve-cache=64
                ckpt-out=${CMAKE_CURRENT_BINARY_DIR}/cli_cache.ckpt
                ckpt-interval-s=20
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
    "recovery solve-cache invocation failed (exit ${status}):\n${out}${err}")
endif()
message(STATUS "solve-engine invocations accepted (exit 0)")

# And a chaos invocation exercising every fault knob end to end.
execute_process(COMMAND ${EXPERIMENT} queries=2 items=4 ticks=80
                fault-drop=0.2 fault-crash=0.01
                retx-timeout-s=1.5 lease-s=10
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "chaos invocation failed (exit ${status}):\n${out}${err}")
endif()
message(STATUS "chaos invocation accepted (exit 0)")

# A churn invocation exercising every service knob end to end.
execute_process(COMMAND ${EXPERIMENT} queries=2 items=4 ticks=80
                churn-rate=0.2 churn-lifetime-s=30 churn-zipf=0.5
                churn-modify-prob=0.2 admit-budget=5
                admit-policy=degrade
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "churn invocation failed (exit ${status}):\n${out}${err}")
endif()
message(STATUS "churn invocation accepted (exit 0)")

# And a streaming-ingest invocation over a generated CSV (trace_io.h row
# format: one comma-separated row per tick). In script mode the working
# directory is the ctest invocation dir, which is fine for a scratch file.
set(ingest_csv ${CMAKE_CURRENT_BINARY_DIR}/cli_ingest_ticks.csv)
set(csv "")
foreach(i RANGE 0 99)
  math(EXPR a "100 + (${i} * 17) % 23")
  math(EXPR b "80 + (${i} * 11) % 19")
  math(EXPR c "120 + (${i} * 7) % 29")
  math(EXPR d "60 + (${i} * 13) % 17")
  string(APPEND csv "${a},${b},${c},${d}\n")
endforeach()
file(WRITE ${ingest_csv} "${csv}")
execute_process(COMMAND ${EXPERIMENT} queries=2 ingest=${ingest_csv}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "ingest invocation failed (exit ${status}):\n${out}${err}")
endif()
message(STATUS "ingest invocation accepted (exit 0)")

# A series invocation exercising every telemetry knob end to end.
execute_process(COMMAND ${EXPERIMENT} queries=2 items=4 ticks=80
                series-out=${CMAKE_CURRENT_BINARY_DIR}/cli_series.jsonl
                series-window-s=5 series-breakdown=1
                "slo=sim.coordinator.refreshes >= 0 for 2"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "series invocation failed (exit ${status}):\n${out}${err}")
endif()
if(NOT EXISTS ${CMAKE_CURRENT_BINARY_DIR}/cli_series.jsonl)
  message(FATAL_ERROR "series invocation wrote no series file")
endif()
message(STATUS "series invocation accepted (exit 0)")

# The same series on the threaded runtime: every event is emitted on the
# event loop in serial order, so the series file is byte-equal.
execute_process(COMMAND ${EXPERIMENT} queries=2 items=4 ticks=80
                series-out=${CMAKE_CURRENT_BINARY_DIR}/cli_series_rt.jsonl
                series-window-s=5 series-breakdown=1
                "slo=sim.coordinator.refreshes >= 0 for 2"
                threads=2
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
    "threaded series invocation failed (exit ${status}):\n${out}${err}")
endif()
file(READ ${CMAKE_CURRENT_BINARY_DIR}/cli_series.jsonl serial_series)
file(READ ${CMAKE_CURRENT_BINARY_DIR}/cli_series_rt.jsonl threaded_series)
if(NOT serial_series STREQUAL threaded_series)
  message(FATAL_ERROR "threaded series file differs from the serial one")
endif()
message(STATUS "threaded series invocation accepted (exit 0)")

# Series recording on the sharded coordinator, under both shard policies:
# the offline replay must re-derive the recorded series exactly.
foreach(shards IN ITEMS 2 4)
  foreach(policy IN ITEMS eqi hash)
    set(stem ${CMAKE_CURRENT_BINARY_DIR}/cli_series_s${shards}_${policy})
    execute_process(COMMAND ${EXPERIMENT} queries=6 items=12 ticks=80
                    coord-shards=${shards} shard-policy=${policy}
                    trace-out=${stem}_trace.jsonl
                    series-out=${stem}.jsonl series-window-s=5
                    series-breakdown=1
                    "slo=sim.coordinator.refreshes >= 0 for 2"
                    RESULT_VARIABLE status
                    OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "sharded series invocation (coord-shards="
        "${shards} shard-policy=${policy}) failed (exit ${status}):\n"
        "${out}${err}")
    endif()
    execute_process(COMMAND ${TRACECHECK} ${stem}_trace.jsonl
                    --series=${stem}.jsonl
                    RESULT_VARIABLE status
                    OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "tracecheck rejected the sharded series run "
        "(coord-shards=${shards} shard-policy=${policy}):\n${out}${err}")
    endif()
  endforeach()
endforeach()
message(STATUS "sharded series invocations accepted and replayed (exit 0)")
