# CTest script: end-to-end smoke of the live stats endpoint. Trains a tiny
# checkpoint, serves it in the background with --stats-port, polls the
# endpoint live with deepphi_top (dashboard mode, capturing the last
# /stats.json and a final /metrics scrape), validates the deepphi.stats.v1
# record with deepphi_json_check, and asserts the per-stage serve.stage.*
# histograms actually collected samples.
execute_process(
  COMMAND ${TRAIN} --model=stack --synthetic=digits --examples=256 --epochs=1
          --layers=64,16 --save=${WORK}/stats_smoke.dpsa
  RESULT_VARIABLE train_rc)
if(NOT train_rc EQUAL 0)
  message(FATAL_ERROR "deepphi_train for stats smoke failed: ${train_rc}")
endif()

# Background the server: --stats-port=0 avoids port collisions (the bound
# port lands in stats.port), --stats-linger-s keeps the endpoint up after the
# 0.5s request stream drains so the poller always gets its scrapes in.
file(REMOVE ${WORK}/stats.port ${WORK}/stats.json ${WORK}/stats_metrics.txt)
execute_process(
  COMMAND bash -c "'${SERVE}' --model=default='${WORK}/stats_smoke.dpsa' --rate=3000 \
--requests=1500 --max-batch=32 --max-delay-ms=1 --stats-port=0 \
--stats-port-file='${WORK}/stats.port' --stats-linger-s=10 \
> '${WORK}/stats_serve.log' 2>&1 & echo $! > '${WORK}/stats_serve.pid'"
  RESULT_VARIABLE bg_rc)
if(NOT bg_rc EQUAL 0)
  message(FATAL_ERROR "backgrounding deepphi_serve failed: ${bg_rc}")
endif()

# Live polling: --port-file waits for the server to publish its port, the
# first fetch retries across server start-up, and the 4 x 500ms cadence
# spans the request stream so the last capture sees completed traffic.
execute_process(
  COMMAND ${TOP} --port-file=${WORK}/stats.port --count=4 --interval-ms=500
          --no-clear --out=${WORK}/stats.json
          --metrics-out=${WORK}/stats_metrics.txt
  RESULT_VARIABLE top_rc)

# Always reap the background server before judging results.
execute_process(
  COMMAND bash -c "pid=$(cat '${WORK}/stats_serve.pid'); \
for i in $(seq 1 150); do kill -0 $pid 2>/dev/null || exit 0; sleep 0.2; done; \
kill $pid 2>/dev/null; echo 'deepphi_serve did not exit'; exit 1"
  RESULT_VARIABLE reap_rc)

if(NOT top_rc EQUAL 0)
  message(FATAL_ERROR "deepphi_top polling failed: ${top_rc}")
endif()
if(NOT reap_rc EQUAL 0)
  message(FATAL_ERROR "background deepphi_serve failed to drain: ${reap_rc}")
endif()

# The captured /stats.json must be a valid deepphi.stats.v1 record carrying
# every per-stage histogram.
execute_process(
  COMMAND ${CHECK} --schema=deepphi.stats.v1
          --require=serve.latency --require=serve.stage.queue_wait
          --require=serve.stage.collect --require=serve.stage.compute
          --require=serve.stage.scatter ${WORK}/stats.json
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "stats.json failed validation: ${check_rc}")
endif()

# Populated, not just present: every stage histogram reports count >= 1.
file(READ ${WORK}/stats.json stats_body)
foreach(stage serve.latency serve.stage.queue_wait serve.stage.collect
        serve.stage.compute serve.stage.scatter)
  if(NOT stats_body MATCHES "\"${stage}\":\\{\"count\":[1-9]")
    message(FATAL_ERROR "histogram ${stage} is empty in stats.json")
  endif()
endforeach()

# The Prometheus scrape must carry the histogram series for the same stages.
file(READ ${WORK}/stats_metrics.txt metrics_body)
foreach(series deepphi_serve_latency deepphi_serve_stage_compute
        deepphi_serve_stage_queue_wait)
  if(NOT metrics_body MATCHES "# TYPE ${series} histogram")
    message(FATAL_ERROR "missing '# TYPE ${series} histogram' in /metrics")
  endif()
  if(NOT metrics_body MATCHES "${series}_bucket{le=\"\\+Inf\"}")
    message(FATAL_ERROR "missing ${series} +Inf bucket in /metrics")
  endif()
endforeach()

# The server side printed its shutdown stage table and endpoint summary.
file(READ ${WORK}/stats_serve.log serve_log)
foreach(marker "--- stage latency (ms) ---" "stats: answered")
  string(FIND "${serve_log}" "${marker}" marker_pos)
  if(marker_pos EQUAL -1)
    message(FATAL_ERROR "missing '${marker}' in deepphi_serve output")
  endif()
endforeach()
