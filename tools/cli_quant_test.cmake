# CTest script: the int8 serving path end to end. Train a tiny stacked
# checkpoint, quantize it offline with deepphi_quantize, serve the DPQE file
# and validate the telemetry records precision=int8, then serve the original
# float checkpoint with --precision=int8 (on-the-fly quantization) and with
# the default fp32 path, checking each header. Finally the mismatch case:
# --precision=fp32 on an int8 checkpoint must fail.
execute_process(
  COMMAND ${TRAIN} --model=stack --synthetic=digits --examples=256 --epochs=1
          --layers=64,16 --save=${WORK}/quant_smoke.dpsa
  RESULT_VARIABLE train_rc)
if(NOT train_rc EQUAL 0)
  message(FATAL_ERROR "deepphi_train for quant smoke failed: ${train_rc}")
endif()

execute_process(
  COMMAND ${QUANTIZE} --model=${WORK}/quant_smoke.dpsa
          --out=${WORK}/quant_smoke.dpqe
  RESULT_VARIABLE quantize_rc)
if(NOT quantize_rc EQUAL 0)
  message(FATAL_ERROR "deepphi_quantize failed: ${quantize_rc}")
endif()

execute_process(
  COMMAND ${SERVE} --model=default=${WORK}/quant_smoke.dpqe --rate=4000 --requests=200
          --max-batch=32 --max-delay-ms=1
          --telemetry=${WORK}/quant_serve.jsonl
  RESULT_VARIABLE serve_rc)
if(NOT serve_rc EQUAL 0)
  message(FATAL_ERROR "deepphi_serve of the DPQE checkpoint failed: ${serve_rc}")
endif()
execute_process(
  COMMAND ${CHECK} --jsonl --require=record --require=seq
          --expect=deepphi.serve.v1 --expect=serve_config
          --expect=precision --expect=int8
          --expect=serve_summary ${WORK}/quant_serve.jsonl
  RESULT_VARIABLE telemetry_rc)
if(NOT telemetry_rc EQUAL 0)
  message(FATAL_ERROR "int8 serve telemetry failed validation: ${telemetry_rc}")
endif()

# On-the-fly quantization of the float checkpoint.
execute_process(
  COMMAND ${SERVE} --model=default=${WORK}/quant_smoke.dpsa --precision=int8
          --rate=4000 --requests=200 --max-batch=32 --max-delay-ms=1
          --telemetry=${WORK}/quant_serve_otf.jsonl
  RESULT_VARIABLE otf_rc)
if(NOT otf_rc EQUAL 0)
  message(FATAL_ERROR "--precision=int8 on a float checkpoint failed: ${otf_rc}")
endif()
execute_process(
  COMMAND ${CHECK} --jsonl --require=record
          --expect=precision --expect=int8 ${WORK}/quant_serve_otf.jsonl
  RESULT_VARIABLE otf_check_rc)
if(NOT otf_check_rc EQUAL 0)
  message(FATAL_ERROR "on-the-fly int8 telemetry failed: ${otf_check_rc}")
endif()

# Default path still records fp32.
execute_process(
  COMMAND ${SERVE} --model=default=${WORK}/quant_smoke.dpsa --rate=4000 --requests=100
          --max-batch=32 --max-delay-ms=1
          --telemetry=${WORK}/quant_serve_fp32.jsonl
  RESULT_VARIABLE fp32_rc)
if(NOT fp32_rc EQUAL 0)
  message(FATAL_ERROR "default fp32 serve failed: ${fp32_rc}")
endif()
execute_process(
  COMMAND ${CHECK} --jsonl --require=record
          --expect=precision --expect=fp32 ${WORK}/quant_serve_fp32.jsonl
  RESULT_VARIABLE fp32_check_rc)
if(NOT fp32_check_rc EQUAL 0)
  message(FATAL_ERROR "fp32 serve telemetry failed: ${fp32_check_rc}")
endif()

# Mismatch: refusing to pretend an int8 checkpoint is fp32.
execute_process(
  COMMAND ${SERVE} --model=default=${WORK}/quant_smoke.dpqe --precision=fp32
          --rate=1000 --requests=10
  RESULT_VARIABLE mismatch_rc)
if(mismatch_rc EQUAL 0)
  message(FATAL_ERROR "--precision=fp32 on a DPQE checkpoint must fail")
endif()
