# Runs each reproduction bench at tiny settings under --jobs=1 and
# --jobs=4 and byte-compares the two stdout captures: the sweep-level
# pool must never change a printed number. Driven by ctest
# (bench_jobs_identity); by hand:
#
#   cmake -DBENCH_DIR=build/bench -DOUT_DIR=/tmp/jobs \
#         -P bench/check_jobs_identity.cmake
foreach(var BENCH_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()
file(MAKE_DIRECTORY "${OUT_DIR}")

function(check_bench name)
  foreach(jobs 1 4)
    set(out "${OUT_DIR}/${name}.jobs${jobs}.txt")
    execute_process(
      COMMAND "${BENCH_DIR}/${name}" ${ARGN} --jobs=${jobs}
      OUTPUT_FILE "${out}"
      ERROR_QUIET
      RESULT_VARIABLE code)
    if(NOT code EQUAL 0)
      message(FATAL_ERROR "${name} --jobs=${jobs} exited with '${code}'")
    endif()
  endforeach()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT_DIR}/${name}.jobs1.txt" "${OUT_DIR}/${name}.jobs4.txt"
    RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${name}: stdout differs between --jobs=1 and "
                        "--jobs=4 (see ${OUT_DIR})")
  endif()
  message(STATUS "${name}: identical under --jobs=1 and --jobs=4")
endfunction()

check_bench(fig3_vary_n --instances=2 --months=0.25)
check_bench(ablation_design --n=120 --rounds=3)
check_bench(ablation_policy --n=100 --instances=2 --months=1)
check_bench(fault_ablation --n=150 --instances=2 --months=1)
