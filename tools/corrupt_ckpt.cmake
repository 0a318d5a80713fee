# Durable-state artifacts must fail closed: every corruption a partial
# write or a bit flip can produce has to turn into a line-numbered
# diagnostic and exit 2 from polydab_ckpt validate — never a silent
# restart from bad state. Driven by ctest (recovery_ckpt_rejects_corrupt)
# against the checkpoint/WAL pair the crash leg of the e2e chain wrote.
#
# Expects: -DCKPT_TOOL=<binary> -DCKPT=<valid ckpt> -DWAL=<valid wal>
#          -DSCRATCH=<dir for corrupted copies>

# Precondition: the pristine pair validates (otherwise every rejection
# below would be vacuous).
execute_process(COMMAND ${CKPT_TOOL} validate ${CKPT} --wal=${WAL} --quiet
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
    "pristine ckpt/wal failed validation (exit ${status}):\n${out}${err}")
endif()

file(READ ${CKPT} ckpt_contents)
file(READ ${WAL} wal_contents)

# expect_reject(label needle <validate args...>): the invocation must exit
# exactly 2 (corrupt input, not a usage error) and name the defect.
function(expect_reject label needle)
  execute_process(COMMAND ${CKPT_TOOL} validate ${ARGN}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR
      "polydab_ckpt did not reject ${label}: exit ${status}\n${out}${err}")
  endif()
  string(FIND "${out}${err}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "polydab_ckpt rejected ${label} without naming it "
      "(wanted '${needle}'):\n${out}${err}")
  endif()
  message(STATUS "rejected ${label} (exit 2)")
endfunction()

# 1. Partial write at EOF: the final record is cut mid-line. The loader
# tolerates a torn trailing *block* (falls back to the previous
# snapshot), but validate must still name the torn record.
string(LENGTH "${ckpt_contents}" len)
math(EXPR cut "${len} - 10")
string(SUBSTRING "${ckpt_contents}" 0 ${cut} truncated)
file(WRITE ${SCRATCH}/ckpt_truncated.jsonl "${truncated}")
expect_reject("a truncated final record" "truncated record"
              ${SCRATCH}/ckpt_truncated.jsonl)

# 2. Bit flip inside the latest block: every footer's declared digest is
# rewritten, so the block the loader would restart from no longer matches
# its FNV signature.
string(REGEX REPLACE "\"digest\":[0-9]+" "\"digest\":1"
       tampered "${ckpt_contents}")
file(WRITE ${SCRATCH}/ckpt_tampered.jsonl "${tampered}")
expect_reject("a tampered snapshot digest" "digest mismatch"
              ${SCRATCH}/ckpt_tampered.jsonl)

# 3. A key the strict parser does not know (forward-compat refusal).
string(REPLACE "{\"t\":\"end\"," "{\"t\":\"end\",\"zzz\":1,"
       unknown_key "${ckpt_contents}")
file(WRITE ${SCRATCH}/ckpt_unknown_key.jsonl "${unknown_key}")
expect_reject("an unknown footer key" "unknown key 'zzz'"
              ${SCRATCH}/ckpt_unknown_key.jsonl)

# 4. WAL from a future format version, digest aside.
string(REPLACE "polydab.wal.v1" "polydab.wal.v9" skewed "${wal_contents}")
file(WRITE ${SCRATCH}/wal_skewed.jsonl "${skewed}")
expect_reject("a version-skewed WAL" "wal version skew"
              ${CKPT} --wal=${SCRATCH}/wal_skewed.jsonl)

# 5. WAL with a torn final record.
string(LENGTH "${wal_contents}" wlen)
math(EXPR wcut "${wlen} - 5")
string(SUBSTRING "${wal_contents}" 0 ${wcut} wal_truncated)
file(WRITE ${SCRATCH}/wal_truncated.jsonl "${wal_truncated}")
expect_reject("a truncated WAL" "truncated record"
              ${CKPT} --wal=${SCRATCH}/wal_truncated.jsonl)

# The last two cases edit one field of the latest block and re-sign it, so
# the strict field decode and the diff, not the digest, are what see the
# edit. fnv1a32(<out> <text>): the format's block digest (FNV-1a 32 over
# the block's bytes, every line with its newline).
function(fnv1a32 out text)
  string(HEX "${text}" hex)
  string(LENGTH "${hex}" n)
  set(h 2166136261)
  set(i 0)
  while(i LESS n)
    string(SUBSTRING "${hex}" ${i} 2 byte)
    math(EXPR h "((${h} ^ 0x${byte}) * 16777619) & 0xFFFFFFFF")
    math(EXPR i "${i} + 2")
  endwhile()
  set(${out} ${h} PARENT_SCOPE)
endfunction()

string(FIND "${ckpt_contents}" "{\"t\":\"hdr\"" hdr_at REVERSE)
string(FIND "${ckpt_contents}" "{\"t\":\"end\"" end_at REVERSE)
math(EXPR body_len "${end_at} - ${hdr_at}")
string(SUBSTRING "${ckpt_contents}" 0 ${hdr_at} ckpt_prefix)
string(SUBSTRING "${ckpt_contents}" ${hdr_at} ${body_len} ckpt_body)
string(SUBSTRING "${ckpt_contents}" ${end_at} -1 ckpt_footer)

# write_resigned(<path> <body>): the file with its latest block replaced
# by <body> under a recomputed digest footer.
function(write_resigned path body)
  fnv1a32(digest "${body}")
  string(REGEX REPLACE "\"digest\":[0-9]+" "\"digest\":${digest}"
         footer "${ckpt_footer}")
  file(WRITE ${path} "${ckpt_prefix}${body}${footer}")
endfunction()

# 6. A header integer its field cannot hold: the snapshot tick made
# non-integral must be refused by name, never truncated.
string(REGEX REPLACE "^(\\{\"t\":\"hdr\",\"v\":\"[^\"]*\",\"tick\":[0-9]+)"
       "\\1.5" fractional_body "${ckpt_body}")
if(fractional_body STREQUAL ckpt_body)
  message(FATAL_ERROR "latest block header has no integral tick to edit")
endif()
write_resigned(${SCRATCH}/ckpt_fractional_tick.jsonl "${fractional_body}")
expect_reject("a non-integral header tick" "key 'tick' holds"
              ${SCRATCH}/ckpt_fractional_tick.jsonl)

# 7. polydab_ckpt diff must catch a one-field change of a queued event: the
# first event record's seq, re-signed so the copy still validates.
string(FIND "${ckpt_body}" "{\"t\":\"ev\"" ev_at)
if(ev_at EQUAL -1)
  message(FATAL_ERROR "latest block has no event record to edit")
endif()
string(SUBSTRING "${ckpt_body}" ${ev_at} -1 ev_tail)
string(FIND "${ev_tail}" "\n" ev_len)
string(SUBSTRING "${ev_tail}" 0 ${ev_len} ev_line)
string(REGEX REPLACE "\"seq\":([0-9]+)}$" "\"seq\":9\\1}" ev_edited
       "${ev_line}")
if(ev_edited STREQUAL ev_line)
  message(FATAL_ERROR "first event record has no seq to edit: ${ev_line}")
endif()
string(SUBSTRING "${ckpt_body}" 0 ${ev_at} ev_before)
math(EXPR ev_after_at "${ev_at} + ${ev_len}")
string(SUBSTRING "${ckpt_body}" ${ev_after_at} -1 ev_after)
write_resigned(${SCRATCH}/ckpt_event_seq.jsonl
               "${ev_before}${ev_edited}${ev_after}")
execute_process(COMMAND ${CKPT_TOOL} diff ${CKPT}
                        ${SCRATCH}/ckpt_event_seq.jsonl
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(REGEX MATCH "ev\\[[0-9]+\\]\\.seq: " named "${out}")
if(NOT status EQUAL 1 OR NOT named)
  message(FATAL_ERROR
    "polydab_ckpt diff missed a one-field event change (exit ${status}):\n"
    "${out}${err}")
endif()
message(STATUS "diff caught a one-field event change (exit 1)")

# 8. polydab_ckpt parses --max-diffs strictly: trailing text, a
# non-positive count and a count past int range are each refused with
# exit 2, never cut down to a number; a well-formed count is accepted.
foreach(bad "5x" "0" "-3" "99999999999")
  execute_process(COMMAND ${CKPT_TOOL} diff ${CKPT} ${CKPT}
                          --max-diffs=${bad}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${out}${err}" "--max-diffs must be" at)
  if(NOT status EQUAL 2 OR at EQUAL -1)
    message(FATAL_ERROR
      "polydab_ckpt accepted --max-diffs=${bad} (exit ${status}):\n"
      "${out}${err}")
  endif()
  message(STATUS "rejected --max-diffs=${bad} (exit 2)")
endforeach()
execute_process(COMMAND ${CKPT_TOOL} diff ${CKPT} ${CKPT} --max-diffs=5
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
    "polydab_ckpt diff --max-diffs=5 on one file failed (exit ${status}):\n"
    "${out}${err}")
endif()
