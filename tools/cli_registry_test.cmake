# CTest script: end-to-end smoke of the multi-model serving tier. Trains two
# checkpoints plus a swap candidate, serves both models in one process with
# per-model latency budgets (repeatable --model NAME=PATH:BUDGET_MS flags),
# hot-swaps one model through /admin/swap mid-traffic via deepphi_top --get,
# and asserts the per-model serve.model.<name>.* series in /stats.json, the
# model-labelled Prometheus families in /metrics, and the per-model telemetry
# summaries. Also checks that a --model value without a NAME= is a usage
# error naming the NAME=PATH form.
foreach(ckpt small big small_v2)
  if(ckpt STREQUAL "big")
    set(layers 64,32,8)
  else()
    set(layers 64,16)
  endif()
  if(ckpt STREQUAL "small_v2")
    set(epochs 2)  # same shape as small, different weights
  else()
    set(epochs 1)
  endif()
  execute_process(
    COMMAND ${TRAIN} --model=stack --synthetic=digits --examples=256
            --epochs=${epochs} --layers=${layers}
            --save=${WORK}/reg_${ckpt}.dpsa
    RESULT_VARIABLE train_rc)
  if(NOT train_rc EQUAL 0)
    message(FATAL_ERROR "deepphi_train for ${ckpt} failed: ${train_rc}")
  endif()
endforeach()

# Background the two-model server: tight budget on `small`, loose on `big`,
# adaptive batching on, admission control armed, stats endpoint attached.
file(REMOVE ${WORK}/reg.port ${WORK}/reg_stats.json ${WORK}/reg_metrics.txt
     ${WORK}/reg_models.json ${WORK}/reg_swap.json)
execute_process(
  COMMAND bash -c "'${SERVE}' --model small='${WORK}/reg_small.dpsa':5 \
--model big='${WORK}/reg_big.dpsa':20 --rate=1500 --requests=3000 \
--max-batch=32 --shed-fraction=0.9 --workers=2 --stats-port=0 \
--stats-port-file='${WORK}/reg.port' --stats-linger-s=10 \
--telemetry='${WORK}/reg_serve.jsonl' \
> '${WORK}/reg_serve.log' 2>&1 & echo $! > '${WORK}/reg_serve.pid'"
  RESULT_VARIABLE bg_rc)
if(NOT bg_rc EQUAL 0)
  message(FATAL_ERROR "backgrounding deepphi_serve failed: ${bg_rc}")
endif()

# Wait for the port file, then list the registry through the admin route
# (the retries cover server start-up).
execute_process(
  COMMAND bash -c "'${TOP}' --port-file='${WORK}/reg.port' \
--get=/admin/models > '${WORK}/reg_models.json'"
  RESULT_VARIABLE models_rc)
if(NOT models_rc EQUAL 0)
  message(FATAL_ERROR "/admin/models fetch failed: ${models_rc}")
endif()

# Hot swap `small` to the v2 checkpoint while the 2s request stream is still
# running: zero-downtime — the server keeps serving throughout.
execute_process(
  COMMAND bash -c "'${TOP}' --port-file='${WORK}/reg.port' \
--get='/admin/swap?model=small&path=${WORK}/reg_small_v2.dpsa' \
> '${WORK}/reg_swap.json'"
  RESULT_VARIABLE swap_rc)
if(NOT swap_rc EQUAL 0)
  message(FATAL_ERROR "/admin/swap fetch failed: ${swap_rc}")
endif()

# A bad swap must come back as HTTP 400, not take the server down.
execute_process(
  COMMAND ${TOP} --port-file=${WORK}/reg.port
          --get=/admin/swap?model=ghost&path=${WORK}/reg_small_v2.dpsa
  RESULT_VARIABLE bad_swap_rc ERROR_QUIET OUTPUT_QUIET)
if(bad_swap_rc EQUAL 0)
  message(FATAL_ERROR "swap of unknown model should have failed")
endif()

# Poll the dashboard across the remaining stream and capture the final
# /stats.json and /metrics.
execute_process(
  COMMAND ${TOP} --port-file=${WORK}/reg.port --count=3 --interval-ms=400
          --no-clear --out=${WORK}/reg_stats.json
          --metrics-out=${WORK}/reg_metrics.txt
  RESULT_VARIABLE top_rc)

# Always reap the background server before judging results.
execute_process(
  COMMAND bash -c "pid=$(cat '${WORK}/reg_serve.pid'); \
for i in $(seq 1 150); do kill -0 $pid 2>/dev/null || exit 0; sleep 0.2; done; \
kill $pid 2>/dev/null; echo 'deepphi_serve did not exit'; exit 1"
  RESULT_VARIABLE reap_rc)

if(NOT top_rc EQUAL 0)
  message(FATAL_ERROR "deepphi_top polling failed: ${top_rc}")
endif()
if(NOT reap_rc EQUAL 0)
  message(FATAL_ERROR "background deepphi_serve failed to drain: ${reap_rc}")
endif()

# /admin/models listed both models with their budgets.
file(READ ${WORK}/reg_models.json models_body)
foreach(marker "\"name\":\"big\"" "\"name\":\"small\"" "\"budget_ms\":5"
        "\"budget_ms\":20" "\"precision\":\"fp32\"")
  string(FIND "${models_body}" "${marker}" marker_pos)
  if(marker_pos EQUAL -1)
    message(FATAL_ERROR "missing ${marker} in /admin/models body")
  endif()
endforeach()

# The swap bumped small to version 2 and reported the new checkpoint.
file(READ ${WORK}/reg_swap.json swap_body)
foreach(marker "\"model\":\"small\"" "\"old_version\":1" "\"new_version\":2"
        "\"magic\":\"DPSA\"")
  string(FIND "${swap_body}" "${marker}" marker_pos)
  if(marker_pos EQUAL -1)
    message(FATAL_ERROR "missing ${marker} in /admin/swap body")
  endif()
endforeach()

# The captured /stats.json is a valid deepphi.stats.v1 record carrying the
# per-model series for BOTH models alongside the process-wide ones.
execute_process(
  COMMAND ${CHECK} --schema=deepphi.stats.v1
          --require=serve.latency
          --require=serve.model.small.latency
          --require=serve.model.small.compute
          --require=serve.model.big.latency
          --require=serve.model.small.requests
          --require=serve.model.big.requests
          --require=serve.model.small.queue_depth
          --require=serve.model.small.budget_ms ${WORK}/reg_stats.json
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "reg_stats.json failed validation: ${check_rc}")
endif()

# Populated, not just present: both lanes actually served traffic, and the
# swap gauge reads version 2 for small, 1 for big.
file(READ ${WORK}/reg_stats.json stats_body)
foreach(series serve.model.small.latency serve.model.big.latency)
  if(NOT stats_body MATCHES "\"${series}\":\\{\"count\":[1-9]")
    message(FATAL_ERROR "histogram ${series} is empty in stats.json")
  endif()
endforeach()
if(NOT stats_body MATCHES "\"serve.model.small.version\":2")
  message(FATAL_ERROR "small did not reach version 2 in stats.json")
endif()
if(NOT stats_body MATCHES "\"serve.model.big.version\":1")
  message(FATAL_ERROR "big should still be version 1 in stats.json")
endif()

# The Prometheus scrape renders per-model series as ONE family with a model
# label, grouped under a single TYPE line.
file(READ ${WORK}/reg_metrics.txt metrics_body)
foreach(marker
        "# TYPE deepphi_serve_model_latency histogram"
        "deepphi_serve_model_latency_bucket{model=\"small\",le=\"\\+Inf\"}"
        "deepphi_serve_model_latency_bucket{model=\"big\",le=\"\\+Inf\"}"
        "deepphi_serve_model_requests_total{model=\"small\"}"
        "deepphi_serve_model_version{model=\"small\"} 2"
        "deepphi_serve_model_budget_ms{model=\"small\"} 5")
  if(NOT metrics_body MATCHES "${marker}")
    message(FATAL_ERROR "missing '${marker}' in /metrics")
  endif()
endforeach()
string(REGEX MATCHALL "# TYPE deepphi_serve_model_latency histogram"
       type_lines "${metrics_body}")
list(LENGTH type_lines type_count)
if(NOT type_count EQUAL 1)
  message(FATAL_ERROR
          "family deepphi_serve_model_latency must have exactly one TYPE "
          "line, found ${type_count}")
endif()

# Telemetry carries the per-model summaries plus the aggregate.
execute_process(
  COMMAND ${CHECK} --jsonl --require=record --require=seq
          --expect=deepphi.serve.v1 --expect=serve_config
          --expect=serve_model_summary --expect=serve_summary
          --expect=slo_met ${WORK}/reg_serve.jsonl
  RESULT_VARIABLE telemetry_rc)
if(NOT telemetry_rc EQUAL 0)
  message(FATAL_ERROR "serve telemetry failed validation: ${telemetry_rc}")
endif()

# The server printed a per-model summary row for each lane.
file(READ ${WORK}/reg_serve.log serve_log)
foreach(marker "--- per-model ---" "serving small:" "serving big:")
  string(FIND "${serve_log}" "${marker}" marker_pos)
  if(marker_pos EQUAL -1)
    message(FATAL_ERROR "missing '${marker}' in deepphi_serve output")
  endif()
endforeach()

# A bare path (no NAME=) is a usage error that names the expected form.
execute_process(
  COMMAND ${SERVE} --model=${WORK}/reg_small.dpsa --rate=2000 --requests=100
  RESULT_VARIABLE bare_rc OUTPUT_VARIABLE bare_out ERROR_VARIABLE bare_err)
if(bare_rc EQUAL 0)
  message(FATAL_ERROR "--model PATH without a NAME= must fail")
endif()
if(NOT bare_err MATCHES "NAME=PATH")
  message(FATAL_ERROR "bare-path --model error should name NAME=PATH: ${bare_err}")
endif()
