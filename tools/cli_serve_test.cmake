# CTest script: train a tiny checkpoint, serve it with synthetic open-loop
# arrivals under deepphi_serve, and validate the emitted deepphi.serve.v1
# telemetry (config record, per-batch records, latency summary) with
# deepphi_json_check. Then replay the same load from a trace file.
execute_process(
  COMMAND ${TRAIN} --model=stack --synthetic=digits --examples=256 --epochs=1
          --layers=64,16 --save=${WORK}/serve_smoke.dpsa
  RESULT_VARIABLE train_rc)
if(NOT train_rc EQUAL 0)
  message(FATAL_ERROR "deepphi_train for serve smoke failed: ${train_rc}")
endif()

execute_process(
  COMMAND ${SERVE} --model=default=${WORK}/serve_smoke.dpsa --rate=4000 --requests=400
          --max-batch=32 --max-delay-ms=1
          --telemetry=${WORK}/serve_run.jsonl
  RESULT_VARIABLE serve_rc)
if(NOT serve_rc EQUAL 0)
  message(FATAL_ERROR "deepphi_serve synthetic run failed: ${serve_rc}")
endif()

execute_process(
  COMMAND ${CHECK} --jsonl --require=record --require=seq
          --expect=deepphi.serve.v1 --expect=serve_config
          --expect=serve_batch --expect=serve_summary
          --expect=latency_p95_s ${WORK}/serve_run.jsonl
  RESULT_VARIABLE telemetry_rc)
if(NOT telemetry_rc EQUAL 0)
  message(FATAL_ERROR "serve telemetry JSONL failed validation: ${telemetry_rc}")
endif()

# Trace replay: a handful of bursty arrivals, comments and blanks allowed.
file(WRITE ${WORK}/serve_trace.txt
"# arrival offsets in seconds
0.000
0.000
0.001

0.010
0.010
0.011
0.050
")
execute_process(
  COMMAND ${SERVE} --model=default=${WORK}/serve_smoke.dpsa
          --trace=${WORK}/serve_trace.txt --max-batch=4 --max-delay-ms=1
  RESULT_VARIABLE replay_rc)
if(NOT replay_rc EQUAL 0)
  message(FATAL_ERROR "deepphi_serve trace replay failed: ${replay_rc}")
endif()
