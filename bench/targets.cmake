# One binary per paper table/figure plus ablations and microbenches.
# The helper library must NOT land in build/bench (that directory is
# executed wholesale by the repro driver), so it archives elsewhere.
add_library(mps_benchlib STATIC ${CMAKE_SOURCE_DIR}/bench/suite_runners.cpp)
target_include_directories(mps_benchlib PUBLIC ${CMAKE_SOURCE_DIR}/bench)
target_link_libraries(mps_benchlib
  PUBLIC mps_core mps_baselines mps_workloads mps_analysis mps_autotune
  PRIVATE mps_warnings)
set_target_properties(mps_benchlib PROPERTIES
  ARCHIVE_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/lib)

# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench holds ONLY runnable binaries: the repro driver executes
# every file in that directory.
function(mps_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE mps_benchlib mps_warnings)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

mps_add_bench(table2_matrices)
mps_add_bench(fig2_union)
mps_add_bench(fig4_blocksort)
mps_add_bench(fig5_spmv)
mps_add_bench(fig6_spmv_corr)
mps_add_bench(fig7_spadd)
mps_add_bench(fig8_spadd_corr)
mps_add_bench(fig9_spgemm)
mps_add_bench(fig10_spgemm_corr)
mps_add_bench(fig11_spgemm_breakdown)
mps_add_bench(ablation_spgemm)
mps_add_bench(ablation_spmv)
mps_add_bench(plan_reuse_spmv)
mps_add_bench(roofline_spmv)
mps_add_bench(ablation_formats)
mps_add_bench(sensitivity)
mps_add_bench(extended_suite)

# Links the serving engine on top of the bench helpers, so it gets an
# explicit target like the microbenches.
add_executable(serve_throughput ${CMAKE_SOURCE_DIR}/bench/serve_throughput.cpp)
target_link_libraries(serve_throughput PRIVATE
  mps_benchlib mps_serve mps_warnings)
set_target_properties(serve_throughput PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Multi-device shard scaling: serving engine at fleet sizes 1/2/4/8 plus
# a heterogeneous weighted-vs-uniform placement leg (docs/sharding.md).
add_executable(shard_scaling ${CMAKE_SOURCE_DIR}/bench/shard_scaling.cpp)
target_link_libraries(shard_scaling PRIVATE
  mps_benchlib mps_serve mps_warnings)
set_target_properties(shard_scaling PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

add_executable(micro_primitives ${CMAKE_SOURCE_DIR}/bench/micro_primitives.cpp)
target_link_libraries(micro_primitives PRIVATE
  mps_primitives mps_vgpu mps_util benchmark::benchmark mps_warnings)
set_target_properties(micro_primitives PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

add_executable(micro_kernels ${CMAKE_SOURCE_DIR}/bench/micro_kernels.cpp)
target_link_libraries(micro_kernels PRIVATE
  mps_core mps_workloads mps_sparse mps_vgpu mps_util
  benchmark::benchmark mps_warnings)
set_target_properties(micro_kernels PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
