# The frame_fuzz_corpus test: emits the seed corpus into an empty
# directory, replays it through every decoder, and fails unless the
# replay saw at least one case.
#   cmake -DFUZZ=<frame_fuzz> -DCORPUS=<dir> -P replay_corpus.cmake
file(REMOVE_RECURSE "${CORPUS}")
execute_process(COMMAND "${FUZZ}" --emit-corpus "${CORPUS}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "frame_fuzz --emit-corpus failed: ${status}")
endif()
execute_process(COMMAND "${FUZZ}" "${CORPUS}"
                RESULT_VARIABLE status OUTPUT_VARIABLE output)
message(STATUS "${output}")
if(NOT status EQUAL 0 OR NOT output MATCHES "replayed [1-9]")
  message(FATAL_ERROR "frame_fuzz replay failed: ${status}")
endif()
file(REMOVE_RECURSE "${CORPUS}")
