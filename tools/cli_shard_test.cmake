# CTest script: the sharded streaming pipeline end to end through the CLIs.
#
#   1. deepphi_shard generates the default synthetic corpus and writes it as
#      small shards + manifest, then --check re-hashes every payload.
#   2. deepphi_train streams the manifest (--data-manifest, shuffled) with
#      telemetry into an SAE, a stacked autoencoder and a DBN, and the SAE
#      run header must carry the dataset provenance (dataset_source/format/
#      bytes, total_chunks, shuffle_window).
#   3. The same training runs from the in-memory synthetic corpus must
#      produce BITWISE IDENTICAL checkpoints — the determinism contract of
#      docs/data_pipeline.md, checked with cmake -E compare_files.
execute_process(
  COMMAND ${SHARD} --examples=1024 --out=${WORK}/shards --rows-per-shard=300
  RESULT_VARIABLE shard_rc)
if(NOT shard_rc EQUAL 0)
  message(FATAL_ERROR "deepphi_shard failed: ${shard_rc}")
endif()

execute_process(
  COMMAND ${SHARD} --check=${WORK}/shards/manifest.json
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "deepphi_shard --check failed: ${check_rc}")
endif()

# Bitwise identity: streaming from shards must train the same model as the
# in-memory path under the same seed and shuffle window. A stack's layer 0
# streams; its upper layers train on codes built in memory either way.
foreach(model sae stack dbn)
  foreach(from manifest memory)
    if(from STREQUAL "manifest")
      set(data_args --data-manifest=${WORK}/shards/manifest.json
                    --telemetry ${WORK}/shard_${model}.jsonl)
    else()
      set(data_args --synthetic=digits --examples=1024)
    endif()
    execute_process(
      COMMAND ${TRAIN} --model=${model} ${data_args} --hidden=16
              --layers=64,16,8 --epochs=2 --chunk=128 --batch=16
              --shuffle-window=256 --save=${WORK}/shard_${model}_${from}.ckpt
      RESULT_VARIABLE train_rc)
    if(NOT train_rc EQUAL 0)
      message(FATAL_ERROR
              "deepphi_train --model=${model} from ${from} failed: ${train_rc}")
    endif()
  endforeach()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK}/shard_${model}_manifest.ckpt
            ${WORK}/shard_${model}_memory.ckpt
    RESULT_VARIABLE identical_rc)
  if(NOT identical_rc EQUAL 0)
    message(FATAL_ERROR "--model=${model}: sharded and in-memory checkpoints "
                        "differ (bitwise contract broken)")
  endif()
endforeach()

execute_process(
  COMMAND ${CHECK} --jsonl --require=record --require=seq
          --expect=deepphi.telemetry.v1 --expect=run_header
          --expect=run_summary ${WORK}/shard_sae.jsonl
  RESULT_VARIABLE telemetry_rc)
if(NOT telemetry_rc EQUAL 0)
  message(FATAL_ERROR "streaming telemetry failed validation: ${telemetry_rc}")
endif()

# The run header must record the dataset provenance.
file(STRINGS ${WORK}/shard_sae.jsonl header_line LIMIT_COUNT 1)
foreach(key "\"dataset_source\":\"sharded\"" "\"dataset_format\":\"f32\""
        "\"dataset_bytes\":262144" "\"total_chunks\":8"
        "\"shuffle_window\":256")
  string(FIND "${header_line}" "${key}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "run header missing ${key}: ${header_line}")
  endif()
endforeach()

# The run summary must report the pipeline's overlap accounting.
file(STRINGS ${WORK}/shard_sae.jsonl lines)
list(GET lines -1 summary_line)
foreach(key "\"load_stall_s\"" "\"overlap_efficiency\"")
  string(FIND "${summary_line}" "${key}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "run summary missing ${key}: ${summary_line}")
  endif()
endforeach()
