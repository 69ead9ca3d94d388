#include "core/spmv.hpp"

#include "core/spmm.hpp"
#include "core/spmv_impl.hpp"

namespace mps::core::merge {

SpmvStats spmv(vgpu::Device& device, const sparse::CsrD& a,
               std::span<const double> x, std::span<double> y,
               const SpmvConfig& cfg, index_t num_vectors) {
  return detail::spmv_impl<double>(device, a, x, y, cfg, num_vectors);
}

SpmvStats spmv(vgpu::Device& device, const sparse::CsrMatrix<float>& a,
               std::span<const float> x, std::span<float> y,
               const SpmvConfig& cfg, index_t num_vectors) {
  return detail::spmv_impl<float>(device, a, x, y, cfg, num_vectors);
}

SpmvPlan spmv_plan(vgpu::Device& device, const sparse::CsrD& a,
                   const SpmvConfig& cfg) {
  return detail::SpmvPlanAccess::build<double>(device, a, cfg);
}

SpmvPlan spmv_plan(vgpu::Device& device, const sparse::CsrMatrix<float>& a,
                   const SpmvConfig& cfg) {
  return detail::SpmvPlanAccess::build<float>(device, a, cfg);
}

SpmvStats spmv_execute(vgpu::Device& device, const sparse::CsrD& a,
                       std::span<const double> x, std::span<double> y,
                       const SpmvPlan& plan, index_t num_vectors) {
  return detail::SpmvPlanAccess::execute<double>(device, a, x, y, plan,
                                                 num_vectors);
}

SpmvStats spmv_execute(vgpu::Device& device, const sparse::CsrMatrix<float>& a,
                       std::span<const float> x, std::span<float> y,
                       const SpmvPlan& plan, index_t num_vectors) {
  return detail::SpmvPlanAccess::execute<float>(device, a, x, y, plan,
                                                num_vectors);
}

SpmmStats spmm(vgpu::Device& device, const sparse::CsrD& a,
               std::span<const double> x, index_t num_vectors,
               std::span<double> y) {
  const SpmvStats s = spmv(device, a, x, y, {}, num_vectors);
  return {s.modeled_ms(), s.wall_ms, s.num_ctas};
}

SpmmStats spmm(vgpu::Device& device, const sparse::CsrMatrix<float>& a,
               std::span<const float> x, index_t num_vectors,
               std::span<float> y) {
  const SpmvStats s = spmv(device, a, x, y, {}, num_vectors);
  return {s.modeled_ms(), s.wall_ms, s.num_ctas};
}

}  // namespace mps::core::merge
