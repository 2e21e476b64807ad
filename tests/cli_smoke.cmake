# CLI smoke test: run a tiny campaign (on the parallel pipeline, with a
# metrics snapshot, a time series, and a flight dump), write a compressed
# dataset, then analyze it (which validates it against the formal spec
# first).  Every JSON artifact must pass the tool's own jsoncheck, and the
# time series must be byte-identical across two same-seed runs.
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
          --hours 3 --workers 2 --xml smoke.xml.dtz
          --metrics-out smoke_metrics.json
          --metrics-interval 1800
          --series-out smoke_series.jsonl --series-csv smoke_series.csv
          --flight-dump smoke_flight.json --log-level warn
          --profile-out smoke_profile.json
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_campaign)
if(NOT rc_campaign EQUAL 0)
  message(FATAL_ERROR "donkeytrace campaign failed: ${rc_campaign}")
endif()
if(NOT EXISTS ${WORKDIR}/smoke_metrics.json)
  message(FATAL_ERROR "campaign did not write smoke_metrics.json")
endif()
file(READ ${WORKDIR}/smoke_metrics.json metrics_json)
if(NOT metrics_json MATCHES "decode\\.messages")
  message(FATAL_ERROR "metrics JSON missing decode.messages counter")
endif()
if(NOT metrics_json MATCHES "capture\\.dropped")
  message(FATAL_ERROR "metrics JSON missing capture.dropped counter")
endif()

foreach(artifact smoke_series.jsonl smoke_series.csv smoke_flight.json
        smoke_profile.json)
  if(NOT EXISTS ${WORKDIR}/${artifact})
    message(FATAL_ERROR "campaign did not write ${artifact}")
  endif()
endforeach()
# The bottleneck report must attribute thread time and name a bottleneck.
file(READ ${WORKDIR}/smoke_profile.json profile_json)
if(NOT profile_json MATCHES "\"bottleneck\"")
  message(FATAL_ERROR "profile report missing bottleneck verdict")
endif()
if(NOT profile_json MATCHES "\"rss_bytes\"")
  message(FATAL_ERROR "profile report missing resource series")
endif()
if(NOT profile_json MATCHES "capture\\.buffer\\.occupancy")
  message(FATAL_ERROR "profile report missing capture.buffer.occupancy gauge")
endif()
file(READ ${WORKDIR}/smoke_series.jsonl series_jsonl)
if(NOT series_jsonl MATCHES "decode\\.frames")
  message(FATAL_ERROR "series JSONL missing decode.frames")
endif()
file(READ ${WORKDIR}/smoke_flight.json flight_json)
if(NOT flight_json MATCHES "\"recorded\"")
  message(FATAL_ERROR "flight dump missing recorded count")
endif()

# The tool validates its own JSON artifacts (the escaping fix is what makes
# this pass for arbitrary decode-error text).
execute_process(
  COMMAND ${DONKEYTRACE} jsoncheck smoke_metrics.json smoke_series.jsonl
          smoke_flight.json smoke_profile.json
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_jsoncheck)
if(NOT rc_jsoncheck EQUAL 0)
  message(FATAL_ERROR "donkeytrace jsoncheck failed: ${rc_jsoncheck}")
endif()

# Same seed, second run — this one UNPROFILED: the time series (JSONL and
# CSV) must be byte-identical to the first (profiled) run's, which proves
# end to end that the profiler and resource sampler never perturb output
# bytes.  (The metrics snapshot is not compared: span.* histograms are
# wall-clock-valued.)
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
          --hours 3 --workers 2
          --metrics-interval 1800
          --series-out smoke_series2.jsonl --series-csv smoke_series2.csv
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_campaign2)
if(NOT rc_campaign2 EQUAL 0)
  message(FATAL_ERROR "second donkeytrace campaign failed: ${rc_campaign2}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/smoke_series.jsonl ${WORKDIR}/smoke_series2.jsonl
  RESULT_VARIABLE rc_series_cmp)
if(NOT rc_series_cmp EQUAL 0)
  message(FATAL_ERROR "series JSONL differs between same-seed runs")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/smoke_series.csv ${WORKDIR}/smoke_series2.csv
  RESULT_VARIABLE rc_csv_cmp)
if(NOT rc_csv_cmp EQUAL 0)
  message(FATAL_ERROR "series CSV differs between same-seed runs")
endif()

# Checkpoint/resume through the CLI: a campaign writing periodic snapshots
# must produce the same dataset and series as one resumed from the first
# snapshot; missing and corrupt snapshot files must fail with a clean error.
file(REMOVE_RECURSE ${WORKDIR}/smoke_ckpt)
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
          --hours 3 --workers 2 --xml smoke_ck.xml
          --checkpoint-dir smoke_ckpt --checkpoint-interval-hours 1
          --series-out smoke_ck_series.jsonl
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_ckpt)
if(NOT rc_ckpt EQUAL 0)
  message(FATAL_ERROR "checkpointing campaign failed: ${rc_ckpt}")
endif()
file(GLOB snapshots ${WORKDIR}/smoke_ckpt/checkpoint-*.ckpt)
list(LENGTH snapshots snapshot_count)
if(snapshot_count LESS 2)
  message(FATAL_ERROR "expected 2 snapshots, found ${snapshot_count}")
endif()
list(SORT snapshots)
list(GET snapshots 0 first_snapshot)
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
          --hours 3 --workers 2 --xml smoke_ck_resumed.xml
          --resume-from ${first_snapshot}
          --series-out smoke_ck_series_resumed.jsonl
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_resume)
if(NOT rc_resume EQUAL 0)
  message(FATAL_ERROR "resumed campaign failed: ${rc_resume}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/smoke_ck.xml ${WORKDIR}/smoke_ck_resumed.xml
  RESULT_VARIABLE rc_xml_cmp)
if(NOT rc_xml_cmp EQUAL 0)
  message(FATAL_ERROR "resumed dataset differs from the uninterrupted run")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/smoke_ck_series.jsonl
          ${WORKDIR}/smoke_ck_series_resumed.jsonl
  RESULT_VARIABLE rc_ckseries_cmp)
if(NOT rc_ckseries_cmp EQUAL 0)
  message(FATAL_ERROR "resumed series differs from the uninterrupted run")
endif()

# A snapshot saves only measured state (its metrics section leaves the
# operational instruments out), so the same checkpointed command run twice
# writes byte-identical snapshots, telemetry flags included.
file(REMOVE_RECURSE ${WORKDIR}/smoke_ckpt2)
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
          --hours 3 --workers 2 --xml smoke_ck2.xml
          --checkpoint-dir smoke_ckpt2 --checkpoint-interval-hours 1
          --series-out smoke_ck2_series.jsonl
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_ckpt2)
if(NOT rc_ckpt2 EQUAL 0)
  message(FATAL_ERROR "second checkpointing campaign failed: ${rc_ckpt2}")
endif()
file(GLOB snapshots2 ${WORKDIR}/smoke_ckpt2/checkpoint-*.ckpt)
list(LENGTH snapshots2 snapshot2_count)
if(NOT snapshot2_count EQUAL snapshot_count)
  message(FATAL_ERROR "second run wrote ${snapshot2_count} snapshots, "
                      "the first ${snapshot_count}")
endif()
foreach(snapshot ${snapshots})
  get_filename_component(snapshot_name ${snapshot} NAME)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${snapshot} ${WORKDIR}/smoke_ckpt2/${snapshot_name}
    RESULT_VARIABLE rc_snapshot_cmp)
  if(NOT rc_snapshot_cmp EQUAL 0)
    message(FATAL_ERROR "same-seed runs wrote different ${snapshot_name}")
  endif()
endforeach()

# A snapshot marks a prefix of the dataset journal beside it; a crash after
# the snapshot leaves bytes past the mark.  Resuming into the same directory
# ignores them, cuts the journal back to the mark and appends: the dataset
# and the journal both come out as the uninterrupted run's dataset.
file(APPEND ${WORKDIR}/smoke_ckpt2/dataset.journal "junk past the last mark")
list(GET snapshots -1 last_snapshot)
get_filename_component(last_snapshot_name ${last_snapshot} NAME)
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
          --hours 3 --workers 2 --xml smoke_ck_junk.xml
          --series-out smoke_ck_junk_series.jsonl
          --checkpoint-dir smoke_ckpt2 --checkpoint-interval-hours 1
          --resume-from ${WORKDIR}/smoke_ckpt2/${last_snapshot_name}
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_junk_resume)
if(NOT rc_junk_resume EQUAL 0)
  message(FATAL_ERROR "resume past a longer journal failed: ${rc_junk_resume}")
endif()
foreach(written smoke_ck_junk.xml smoke_ckpt2/dataset.journal)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/smoke_ck.xml ${WORKDIR}/${written}
    RESULT_VARIABLE rc_junk_cmp)
  if(NOT rc_junk_cmp EQUAL 0)
    message(FATAL_ERROR "${written} differs from the uninterrupted dataset")
  endif()
endforeach()

# --workers 0 and --workers 1 both run the one-worker pipeline: the same
# dataset and series bytes (and the same dataset as the two-worker runs
# above), and a snapshot taken at --workers 0 resumes at --workers 1 to
# those bytes.
file(REMOVE_RECURSE ${WORKDIR}/smoke_w0_ckpt)
foreach(workers 0 1)
  set(ckpt_args)
  if(workers EQUAL 0)
    set(ckpt_args --checkpoint-dir smoke_w0_ckpt --checkpoint-interval-hours 1)
  endif()
  execute_process(
    COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
            --hours 3 --workers ${workers} --xml smoke_w${workers}.xml
            --series-out smoke_w${workers}_series.jsonl ${ckpt_args}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc_workers)
  if(NOT rc_workers EQUAL 0)
    message(FATAL_ERROR "--workers ${workers} campaign failed: ${rc_workers}")
  endif()
endforeach()
file(GLOB w0_snapshots ${WORKDIR}/smoke_w0_ckpt/checkpoint-*.ckpt)
list(LENGTH w0_snapshots w0_snapshot_count)
if(w0_snapshot_count LESS 1)
  message(FATAL_ERROR "--workers 0 campaign wrote no snapshots")
endif()
list(SORT w0_snapshots)
list(GET w0_snapshots 0 w0_snapshot)
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
          --hours 3 --workers 1 --xml smoke_w1_resumed.xml
          --series-out smoke_w1_resumed_series.jsonl
          --resume-from ${w0_snapshot}
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_w1_resume)
if(NOT rc_w1_resume EQUAL 0)
  message(FATAL_ERROR "--workers 1 resume of a --workers 0 snapshot failed: "
                      "${rc_w1_resume}")
endif()
foreach(pair
    "smoke_w0.xml;smoke_w1.xml"
    "smoke_w0_series.jsonl;smoke_w1_series.jsonl"
    "smoke_w0.xml;smoke_w1_resumed.xml"
    "smoke_w0_series.jsonl;smoke_w1_resumed_series.jsonl"
    "smoke_w0.xml;smoke_ck.xml")
  list(GET pair 0 left)
  list(GET pair 1 right)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/${left} ${WORKDIR}/${right}
    RESULT_VARIABLE rc_workers_cmp)
  if(NOT rc_workers_cmp EQUAL 0)
    message(FATAL_ERROR "${left} and ${right} differ")
  endif()
endforeach()

# Resume from a file that does not exist: clean nonzero exit.  The run
# fails after its dataset file was opened, so neither the dataset nor its
# .part file may remain.
file(REMOVE ${WORKDIR}/smoke_missing.xml ${WORKDIR}/smoke_missing.xml.part)
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
          --hours 3 --workers 2 --xml smoke_missing.xml
          --resume-from ${WORKDIR}/smoke_ckpt/no-such-file.ckpt
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_missing
  ERROR_VARIABLE err_missing)
if(rc_missing EQUAL 0)
  message(FATAL_ERROR "resume from a missing snapshot unexpectedly succeeded")
endif()
if(EXISTS ${WORKDIR}/smoke_missing.xml OR
   EXISTS ${WORKDIR}/smoke_missing.xml.part)
  message(FATAL_ERROR "failed resume left a dataset or its .part file")
endif()
if(NOT err_missing MATCHES "cannot resume")
  message(FATAL_ERROR "missing-snapshot error not reported: ${err_missing}")
endif()

# Resume from a corrupt file: clean nonzero exit, checksum/parse error.
file(WRITE ${WORKDIR}/smoke_ckpt/corrupt.ckpt "DTRCKPT1 this is not a snapshot")
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
          --hours 3 --workers 2
          --resume-from ${WORKDIR}/smoke_ckpt/corrupt.ckpt
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_corrupt
  ERROR_VARIABLE err_corrupt)
if(rc_corrupt EQUAL 0)
  message(FATAL_ERROR "resume from a corrupt snapshot unexpectedly succeeded")
endif()
if(NOT err_corrupt MATCHES "checkpoint")
  message(FATAL_ERROR "corrupt-snapshot error not reported: ${err_corrupt}")
endif()

# Scenario presets through the CLI: a hostile-regime campaign (query_storm)
# runs end to end with checkpointing, prints the figure-style scenario
# summary, and a resume from its first snapshot reproduces the dataset byte
# for byte — the kill+resume-under-storm story at CLI level.
file(REMOVE_RECURSE ${WORKDIR}/smoke_storm_ckpt)
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
          --hours 3 --workers 2 --scenario query_storm
          --xml smoke_storm.xml
          --checkpoint-dir smoke_storm_ckpt --checkpoint-interval-hours 1
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_storm
  OUTPUT_VARIABLE out_storm)
if(NOT rc_storm EQUAL 0)
  message(FATAL_ERROR "query_storm campaign failed: ${rc_storm}")
endif()
if(NOT out_storm MATCHES "== scenario: query_storm ==")
  message(FATAL_ERROR "storm campaign did not print the scenario summary")
endif()
file(GLOB storm_snapshots ${WORKDIR}/smoke_storm_ckpt/checkpoint-*.ckpt)
list(LENGTH storm_snapshots storm_snapshot_count)
if(storm_snapshot_count LESS 1)
  message(FATAL_ERROR "storm campaign wrote no snapshots")
endif()
list(SORT storm_snapshots)
list(GET storm_snapshots 0 storm_snapshot)
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
          --hours 3 --workers 2 --scenario query_storm
          --xml smoke_storm_resumed.xml
          --resume-from ${storm_snapshot}
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_storm_resume)
if(NOT rc_storm_resume EQUAL 0)
  message(FATAL_ERROR "resumed storm campaign failed: ${rc_storm_resume}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/smoke_storm.xml ${WORKDIR}/smoke_storm_resumed.xml
  RESULT_VARIABLE rc_storm_cmp)
if(NOT rc_storm_cmp EQUAL 0)
  message(FATAL_ERROR "resumed storm dataset differs from uninterrupted run")
endif()

# A steady-campaign snapshot must refuse to resume a storm campaign (the
# scenario joins the snapshot fingerprint).
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
          --hours 3 --workers 2
          --resume-from ${storm_snapshot}
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_storm_mismatch
  ERROR_VARIABLE err_storm_mismatch)
if(rc_storm_mismatch EQUAL 0)
  message(FATAL_ERROR "steady resume of a storm snapshot unexpectedly succeeded")
endif()
if(NOT err_storm_mismatch MATCHES "scenario")
  message(FATAL_ERROR "scenario mismatch not reported: ${err_storm_mismatch}")
endif()

# An unknown preset name: clean usage error naming the known presets.
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 20 --files 100
          --hours 1 --scenario no_such_storm
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_badname
  ERROR_VARIABLE err_badname)
if(NOT rc_badname EQUAL 2)
  message(FATAL_ERROR "unknown scenario exited ${rc_badname}, expected 2")
endif()
if(NOT err_badname MATCHES "unknown scenario")
  message(FATAL_ERROR "unknown-scenario error not reported: ${err_badname}")
endif()

# Chunked compressed streaming through the CLI: a --compress campaign
# writes the DTZCHNK1 container as it streams; decompress must restore
# exactly the bytes an uncompressed same-seed run writes (smoke_ck.xml
# above — checkpointing never changes output bytes).
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
          --hours 3 --workers 2 --compress --xml smoke_z.xml.dtz
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_zcampaign)
if(NOT rc_zcampaign EQUAL 0)
  message(FATAL_ERROR "compressed campaign failed: ${rc_zcampaign}")
endif()
execute_process(
  COMMAND ${DONKEYTRACE} decompress smoke_z.xml.dtz
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_zdecompress)
if(NOT rc_zdecompress EQUAL 0)
  message(FATAL_ERROR "decompress of chunked container failed: ${rc_zdecompress}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/smoke_z.xml ${WORKDIR}/smoke_ck.xml
  RESULT_VARIABLE rc_z_cmp)
if(NOT rc_z_cmp EQUAL 0)
  message(FATAL_ERROR "compressed round-trip differs from the uncompressed run")
endif()
# analyze reads the chunked container directly (auto-detected by magic).
execute_process(
  COMMAND ${DONKEYTRACE} analyze smoke_z.xml.dtz
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_zanalyze
  OUTPUT_VARIABLE out_zanalyze)
if(NOT rc_zanalyze EQUAL 0)
  message(FATAL_ERROR "analyze of chunked container failed: ${rc_zanalyze}")
endif()
if(NOT out_zanalyze MATCHES "distinct clients")
  message(FATAL_ERROR "chunked analyze output missing summary table")
endif()
# `compress` writes the same container format at the default chunk size:
# the campaign as plain XML and as `compress` output must analyze to the
# very same report (the input form never reaches the statistics), and
# `decompress` restores the plain bytes.
file(REMOVE ${WORKDIR}/smoke_c.xml.dtz)
file(COPY_FILE ${WORKDIR}/smoke_ck.xml ${WORKDIR}/smoke_c.xml)
execute_process(
  COMMAND ${DONKEYTRACE} compress smoke_c.xml
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_compress)
if(NOT rc_compress EQUAL 0)
  message(FATAL_ERROR "compress failed: ${rc_compress}")
endif()
set(container_magic_hex 44545a43484e4b31)  # "DTZCHNK1"
file(READ ${WORKDIR}/smoke_c.xml.dtz c_magic LIMIT 8 HEX)
if(NOT c_magic STREQUAL container_magic_hex)
  message(FATAL_ERROR "compress did not write a DTZCHNK1 container")
endif()
foreach(form smoke_ck.xml smoke_c.xml.dtz)
  execute_process(
    COMMAND ${DONKEYTRACE} analyze ${form}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc_form
    OUTPUT_VARIABLE out_form)
  if(NOT rc_form EQUAL 0)
    message(FATAL_ERROR "analyze of ${form} failed: ${rc_form}")
  endif()
  if(NOT out_form STREQUAL out_zanalyze)
    message(FATAL_ERROR "analyze of ${form} differs from the chunked "
                        "container's report")
  endif()
endforeach()
file(REMOVE ${WORKDIR}/smoke_c.xml)
execute_process(
  COMMAND ${DONKEYTRACE} decompress smoke_c.xml.dtz
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_c_decompress)
if(NOT rc_c_decompress EQUAL 0)
  message(FATAL_ERROR "decompress of compress output failed: ${rc_c_decompress}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/smoke_c.xml ${WORKDIR}/smoke_ck.xml
  RESULT_VARIABLE rc_c_cmp)
if(NOT rc_c_cmp EQUAL 0)
  message(FATAL_ERROR "compress/decompress round-trip changed the bytes")
endif()
# decompress refuses anything but a container, and leaves no output file.
file(COPY_FILE ${WORKDIR}/smoke_ck.xml ${WORKDIR}/smoke_plain.xml.dtz)
file(REMOVE ${WORKDIR}/smoke_plain.xml ${WORKDIR}/smoke_plain.xml.part)
execute_process(
  COMMAND ${DONKEYTRACE} decompress smoke_plain.xml.dtz
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_plain_decompress
  ERROR_VARIABLE err_plain_decompress)
if(rc_plain_decompress EQUAL 0 OR EXISTS ${WORKDIR}/smoke_plain.xml OR
   EXISTS ${WORKDIR}/smoke_plain.xml.part)
  message(FATAL_ERROR "decompress accepted plain XML or left an output file")
endif()
if(NOT err_plain_decompress MATCHES "not a DTZCHNK1 container")
  message(FATAL_ERROR "plain-XML decompress not reported: ${err_plain_decompress}")
endif()

# decode --xml x.dtz writes the container too, and it holds exactly the
# plain XML a decode to x.xml writes.
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 20 --files 100
          --hours 1 --pcap smoke_dec.pcap
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_dec_campaign)
if(NOT rc_dec_campaign EQUAL 0)
  message(FATAL_ERROR "pcap campaign failed: ${rc_dec_campaign}")
endif()
file(REMOVE ${WORKDIR}/smoke_dec.xml)
foreach(out smoke_dec.xml.dtz smoke_dec_plain.xml)
  execute_process(
    COMMAND ${DONKEYTRACE} decode --pcap smoke_dec.pcap --xml ${out}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc_decode)
  if(NOT rc_decode EQUAL 0)
    message(FATAL_ERROR "decode --xml ${out} failed: ${rc_decode}")
  endif()
endforeach()
file(READ ${WORKDIR}/smoke_dec.xml.dtz dec_magic LIMIT 8 HEX)
if(NOT dec_magic STREQUAL container_magic_hex)
  message(FATAL_ERROR "decode --xml x.dtz did not write a DTZCHNK1 container")
endif()
execute_process(
  COMMAND ${DONKEYTRACE} decompress smoke_dec.xml.dtz
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_dec_decompress)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/smoke_dec.xml ${WORKDIR}/smoke_dec_plain.xml
  RESULT_VARIABLE rc_dec_cmp)
if(NOT rc_dec_decompress EQUAL 0 OR NOT rc_dec_cmp EQUAL 0)
  message(FATAL_ERROR "decode's container does not restore its plain XML")
endif()
# A truncated container fails without a report, whether the cut falls
# mid-dataset or after </capture> (inside the end frame): analyze drains
# the container to its end frame before it prints anything.
file(SIZE ${WORKDIR}/smoke_z.xml.dtz z_size)
math(EXPR z_mid "${z_size} / 2")
math(EXPR z_tail "${z_size} - 4")
foreach(cut ${z_mid} ${z_tail})
  execute_process(
    COMMAND head -c ${cut} smoke_z.xml.dtz
    WORKING_DIRECTORY ${WORKDIR}
    OUTPUT_FILE ${WORKDIR}/smoke_cut.xml.dtz)
  execute_process(
    COMMAND ${DONKEYTRACE} analyze smoke_cut.xml.dtz
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc_cut
    OUTPUT_VARIABLE out_cut
    ERROR_VARIABLE err_cut)
  if(rc_cut EQUAL 0 OR out_cut MATCHES "distinct clients")
    message(FATAL_ERROR "analyze accepted a container cut at ${cut} bytes")
  endif()
  if(NOT err_cut MATCHES "cannot load")
    message(FATAL_ERROR "truncated container not reported: ${err_cut}")
  endif()
  execute_process(
    COMMAND ${DONKEYTRACE} decompress smoke_cut.xml.dtz
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc_cut_decompress)
  if(rc_cut_decompress EQUAL 0 OR EXISTS ${WORKDIR}/smoke_cut.xml)
    message(FATAL_ERROR "decompress accepted a container cut at ${cut} bytes")
  endif()
endforeach()
# Token values at the edges of their types are specification findings, not
# crashes: a file token one short of wrapping, one too large to size a
# table by, and the largest client token.
set(hostile_0 "<msg t=\"1\" peer=\"0\" dir=\"q\" kind=\"getsrc\"><f id=\"18446744073709551615\"/></msg>")
set(hostile_1 "<msg t=\"1\" peer=\"0\" dir=\"q\" kind=\"getsrc\"><f id=\"9000000000000000000\"/></msg>")
set(hostile_2 "<msg t=\"1\" peer=\"4294967295\" dir=\"q\" kind=\"statreq\"></msg>")
foreach(i 0 1 2)
  file(WRITE ${WORKDIR}/smoke_hostile.xml "<capture>${hostile_${i}}</capture>")
  execute_process(
    COMMAND ${DONKEYTRACE} analyze smoke_hostile.xml
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc_hostile
    OUTPUT_VARIABLE out_hostile
    ERROR_VARIABLE err_hostile)
  if(NOT rc_hostile EQUAL 1 OR out_hostile MATCHES "distinct clients")
    message(FATAL_ERROR "hostile token ${i}: exit ${rc_hostile}, expected 1 "
                        "and no report")
  endif()
  if(NOT err_hostile MATCHES "violates the specification")
    message(FATAL_ERROR "hostile token ${i} not reported: ${err_hostile}")
  endif()
endforeach()

# Options that no longer exist are only unknown: the campaign warns about
# them and writes the dataset a plain run writes.
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
          --hours 3 --workers 2 --search-cache 8 --anon-shards 2
          --flight-events 16 --xml smoke_deleted_flags.xml
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_deleted
  ERROR_VARIABLE err_deleted)
if(NOT rc_deleted EQUAL 0)
  message(FATAL_ERROR "campaign with deleted flags failed: ${rc_deleted}")
endif()
foreach(flag search-cache anon-shards flight-events)
  if(NOT err_deleted MATCHES "warning: unknown option --${flag}")
    message(FATAL_ERROR "deleted --${flag} not reported as unknown: "
                        "${err_deleted}")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/smoke_deleted_flags.xml ${WORKDIR}/smoke_ck.xml
  RESULT_VARIABLE rc_deleted_cmp)
if(NOT rc_deleted_cmp EQUAL 0)
  message(FATAL_ERROR "deleted flags changed the dataset")
endif()

# A malformed value is an error before any work, never a silent default.
file(REMOVE ${WORKDIR}/smoke_bad_hours.xml)
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 20 --files 100
          --hours 2x --xml smoke_bad_hours.xml
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_bad_hours
  ERROR_VARIABLE err_bad_hours)
if(rc_bad_hours EQUAL 0 OR EXISTS ${WORKDIR}/smoke_bad_hours.xml)
  message(FATAL_ERROR "--hours 2x exited ${rc_bad_hours} or wrote a dataset")
endif()
if(NOT err_bad_hours MATCHES "invalid value for --hours: '2x'")
  message(FATAL_ERROR "--hours 2x not reported: ${err_bad_hours}")
endif()
file(REMOVE ${WORKDIR}/smoke_bad_ip.xml)
execute_process(
  COMMAND ${DONKEYTRACE} decode --pcap smoke_dec.pcap
          --server-ip 10.0.0.300 --xml smoke_bad_ip.xml
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_bad_ip
  ERROR_VARIABLE err_bad_ip)
if(rc_bad_ip EQUAL 0 OR EXISTS ${WORKDIR}/smoke_bad_ip.xml)
  message(FATAL_ERROR "--server-ip 10.0.0.300 exited ${rc_bad_ip} or wrote")
endif()
if(NOT err_bad_ip MATCHES "invalid value for --server-ip: '10.0.0.300'")
  message(FATAL_ERROR "--server-ip 10.0.0.300 not reported: ${err_bad_ip}")
endif()

# A value that parses but does not fit its field is rejected, never
# wrapped (4294967356 is 2^32 + 60): exit 2 before any work, no dataset.
file(REMOVE ${WORKDIR}/smoke_bad_clients.xml
     ${WORKDIR}/smoke_bad_clients.xml.part)
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 4294967356 --files 100
          --hours 1 --xml smoke_bad_clients.xml
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_bad_clients
  ERROR_VARIABLE err_bad_clients)
if(NOT rc_bad_clients EQUAL 2 OR EXISTS ${WORKDIR}/smoke_bad_clients.xml OR
   EXISTS ${WORKDIR}/smoke_bad_clients.xml.part)
  message(FATAL_ERROR "--clients 4294967356 exited ${rc_bad_clients} or "
                      "wrote a dataset")
endif()
if(NOT err_bad_clients MATCHES "invalid value for --clients: '4294967356'")
  message(FATAL_ERROR "--clients 4294967356 not reported: ${err_bad_clients}")
endif()
# An option given without a value is an error, never the path "true".
file(REMOVE ${WORKDIR}/true ${WORKDIR}/true.part)
execute_process(
  COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 20 --files 100
          --hours 1 --xml
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_bare_xml
  ERROR_VARIABLE err_bare_xml)
if(NOT rc_bare_xml EQUAL 2 OR EXISTS ${WORKDIR}/true OR
   EXISTS ${WORKDIR}/true.part)
  message(FATAL_ERROR "--xml without a value exited ${rc_bare_xml} or "
                      "wrote a file named true")
endif()
if(NOT err_bare_xml MATCHES "invalid value for --xml: ''")
  message(FATAL_ERROR "--xml without a value not reported: ${err_bare_xml}")
endif()

# "-" means stdout for every telemetry file flag: decode with the
# documented `--metrics-out - --series-out -` prints the snapshot and the
# series' JSONL lines, announces no "wrote -" and leaves no file named "-".
file(REMOVE ${WORKDIR}/-)
execute_process(
  COMMAND ${DONKEYTRACE} decode --pcap smoke_dec.pcap
          --metrics-out - --series-out -
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_dash
  OUTPUT_VARIABLE out_dash)
if(NOT rc_dash EQUAL 0 OR EXISTS ${WORKDIR}/-)
  message(FATAL_ERROR "decode --series-out - exited ${rc_dash} or wrote a "
                      "file named -")
endif()
if(out_dash MATCHES "wrote -")
  message(FATAL_ERROR "decode --series-out - announced a file: ${out_dash}")
endif()
if(NOT out_dash MATCHES "\n{\"t\": [^\n]*\"decode\\.frames\"" OR
   NOT out_dash MATCHES "\"counters\"")
  message(FATAL_ERROR "decode --series-out - printed no series or metrics: "
                      "${out_dash}")
endif()

# decode of a campaign's pcap writes that campaign's dataset byte for
# byte: the background TCP half is settled, the UDP half runs the same
# pipeline.  Plain and .dtz (same default chunk grid) alike.
foreach(ext xml xml.dtz)
  execute_process(
    COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 80 --files 500
            --hours 3 --background --pcap smoke_bg.pcap
            --xml smoke_bg_campaign.${ext}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc_bg_campaign)
  if(NOT rc_bg_campaign EQUAL 0)
    message(FATAL_ERROR "background campaign (${ext}) failed: ${rc_bg_campaign}")
  endif()
  execute_process(
    COMMAND ${DONKEYTRACE} decode --pcap smoke_bg.pcap
            --xml smoke_bg_decode.${ext}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc_bg_decode)
  if(NOT rc_bg_decode EQUAL 0)
    message(FATAL_ERROR "decode of the background pcap (${ext}) failed: "
                        "${rc_bg_decode}")
  endif()
  if(EXISTS ${WORKDIR}/smoke_bg_decode.${ext}.part)
    message(FATAL_ERROR "decode left smoke_bg_decode.${ext}.part behind")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/smoke_bg_campaign.${ext} ${WORKDIR}/smoke_bg_decode.${ext}
    RESULT_VARIABLE rc_bg_cmp)
  if(NOT rc_bg_cmp EQUAL 0)
    message(FATAL_ERROR "decode (${ext}) differs from the campaign's dataset")
  endif()
endforeach()

execute_process(
  COMMAND ${DONKEYTRACE} analyze smoke.xml.dtz
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_analyze
  OUTPUT_VARIABLE out_analyze)
if(NOT rc_analyze EQUAL 0)
  message(FATAL_ERROR "donkeytrace analyze failed: ${rc_analyze}")
endif()
if(NOT out_analyze MATCHES "distinct clients")
  message(FATAL_ERROR "analyze output missing summary table")
endif()

execute_process(
  COMMAND ${DONKEYTRACE} decompress smoke.xml.dtz
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc_decompress)
if(NOT rc_decompress EQUAL 0)
  message(FATAL_ERROR "donkeytrace decompress failed: ${rc_decompress}")
endif()

# A file the CLI cannot finish writing is a failure: a full device takes
# the buffered bytes and fails only the last flush, so neither writer may
# exit 0 or claim to have written it.
if(EXISTS /dev/full)
  foreach(flag metrics-out profile-out)
    execute_process(
      COMMAND ${DONKEYTRACE} campaign --seed 9 --clients 20 --files 100
              --hours 1 --${flag} /dev/full
      WORKING_DIRECTORY ${WORKDIR}
      RESULT_VARIABLE rc_full
      OUTPUT_VARIABLE out_full
      ERROR_VARIABLE err_full)
    if(rc_full EQUAL 0 OR out_full MATCHES "wrote")
      message(FATAL_ERROR "--${flag} /dev/full exited ${rc_full}: ${out_full}")
    endif()
    if(NOT err_full MATCHES "cannot write /dev/full")
      message(FATAL_ERROR "--${flag} /dev/full not reported: ${err_full}")
    endif()
  endforeach()
endif()
