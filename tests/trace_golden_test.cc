// Golden digests of the trace generators' output.
//
// Every trace the workload generators and api::BuildPlanTraces produce is
// serialized field by field, independent of how nxe::ThreadAction lays its
// operands out in memory, and digested. The digests below were recorded from
// the straightforward per-variant generator, so any change to trace
// construction (sharing a per-seed template, compacting the action record,
// reordering RNG draws) must reproduce exactly the same traces to pass.
//
// To re-record after an intended change to the generated traces:
//   BUNSHIN_GOLDEN_PRINT=1 ./trace_golden_test
// prints the tables below in source form.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/api/nvx.h"
#include "src/api/plan.h"
#include "src/nxe/trace.h"
#include "src/syscall/syscall.h"
#include "src/workload/tracegen.h"
#include "src/workload/workload.h"

namespace bunshin {
namespace {

constexpr uint64_t kSeeds[4] = {1, 5, 42, 0x9E3779B97F4A7C15ull};

bool PrintMode() { return std::getenv("BUNSHIN_GOLDEN_PRINT") != nullptr; }

class Serializer {
 public:
  void U64(uint64_t v) { bytes_.append(reinterpret_cast<const char*>(&v), sizeof(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    bytes_ += s;
  }
  void Record(const sc::SyscallRecord& rec) {
    U64(static_cast<uint64_t>(rec.no));
    for (int64_t arg : rec.args) {
      U64(static_cast<uint64_t>(arg));
    }
    U64(rec.payload_digest);
    U64(static_cast<uint64_t>(rec.result));
  }
  void Trace(const nxe::VariantTrace& trace) {
    Str(trace.name);
    F64(trace.compute_scale);
    U64(trace.pre_main.size());
    for (const auto& rec : trace.pre_main) {
      Record(rec);
    }
    U64(trace.post_exit.size());
    for (const auto& rec : trace.post_exit) {
      Record(rec);
    }
    U64(trace.threads.size());
    for (const auto& thread : trace.threads) {
      U64(thread.actions.size());
      for (const auto& a : thread.actions) {
        U64(static_cast<uint64_t>(a.kind));
        F64(a.cost);
        switch (a.kind) {
          case nxe::ActionKind::kSyscall:
            Record(trace.SyscallOf(a));
            break;
          case nxe::ActionKind::kLockAcquire:
          case nxe::ActionKind::kLockRelease:
          case nxe::ActionKind::kBarrier:
            U64(nxe::VariantTrace::SyncIdOf(a));
            break;
          case nxe::ActionKind::kDetect:
            Str(trace.DetectorOf(a));
            break;
          default:
            break;
        }
      }
    }
  }
  uint64_t Digest() const { return sc::DigestString(bytes_); }

 private:
  std::string bytes_;
};

// Plain, each catalog sanitizer alone and paired, a non-unit compute scale
// without sanitizers, and the default spec the baseline run uses.
std::vector<workload::VariantSpec> VariantSpecs() {
  using san::SanitizerId;
  std::vector<workload::VariantSpec> specs;
  specs.push_back({"plain", 1.0, 1, {}});
  specs.push_back({"asan", 2.07, 2, {SanitizerId::kASan}});
  specs.push_back({"msan", 2.5, 3, {SanitizerId::kMSan}});
  specs.push_back({"ubsan", 3.28, 4, {SanitizerId::kUBSan}});
  specs.push_back({"asan+ubsan", 4.35, 5, {SanitizerId::kASan, SanitizerId::kUBSan}});
  specs.push_back({"scaled", 1.75, 6, {}});
  specs.push_back(workload::VariantSpec{});
  return specs;
}

struct GoldenRow {
  const char* name;
  uint64_t digests[4];  // one per kSeeds entry
};

void PrintRow(const std::string& name, const uint64_t (&digests)[4]) {
  std::printf("    {\"%s\", {0x%016llxull, 0x%016llxull, 0x%016llxull, 0x%016llxull}},\n",
              name.c_str(), static_cast<unsigned long long>(digests[0]),
              static_cast<unsigned long long>(digests[1]),
              static_cast<unsigned long long>(digests[2]),
              static_cast<unsigned long long>(digests[3]));
}

// Checks (or, in print mode, prints) one row per name against `golden`.
template <typename DigestFn>
void CheckRows(const std::vector<std::string>& names, const std::vector<GoldenRow>& golden,
               DigestFn digest_of) {
  if (!PrintMode()) {
    ASSERT_EQ(names.size(), golden.size());
  }
  for (size_t i = 0; i < names.size(); ++i) {
    uint64_t got[4];
    for (size_t s = 0; s < 4; ++s) {
      got[s] = digest_of(i, kSeeds[s]);
    }
    if (PrintMode()) {
      PrintRow(names[i], got);
      continue;
    }
    EXPECT_EQ(names[i], golden[i].name);
    for (size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(got[s], golden[i].digests[s])
          << names[i] << " seed " << kSeeds[s] << ": generated traces changed";
    }
  }
}

std::vector<workload::BenchmarkSpec> Catalog() {
  std::vector<workload::BenchmarkSpec> all;
  for (const auto* suite : {&workload::Spec2006(), &workload::Splash2x(), &workload::Parsec()}) {
    all.insert(all.end(), suite->begin(), suite->end());
  }
  return all;
}

std::vector<workload::ServerSpec> Servers() {
  std::vector<workload::ServerSpec> servers;
  for (size_t threads : {1, 4}) {
    for (size_t file_kb : {1, 1024}) {
      workload::ServerSpec spec;
      spec.name = threads == 1 ? "lighttpd" : "nginx";
      spec.threads = threads;
      spec.file_kb = file_kb;
      spec.concurrency = file_kb == 1 ? 64 : 1024;
      servers.push_back(spec);
    }
  }
  return servers;
}

const std::vector<GoldenRow> kCatalogGolden = {
    {"perlbench", {0x3c0b0130506a48ceull, 0xb9f61aceb015121eull, 0xd4c165c020fd47fbull, 0x4a8c3fd63978f64full}},
    {"bzip2", {0x807ea0889f5c7b8eull, 0xae2d848be9aaf34bull, 0xda0480586a37fde8ull, 0xdc8192b11dbd9b73ull}},
    {"gcc", {0x11f76b65bb08c3c8ull, 0x3cca4d59a3d52916ull, 0x79e35cb32ee5fecbull, 0x9aab4ecee348ae49ull}},
    {"mcf", {0xb599c32fb6f82152ull, 0x7563c5b89f2daafaull, 0x5e23eb2cb04c3f00ull, 0xb058578a3389925bull}},
    {"milc", {0x5129498a3f43d00eull, 0x32ee08ae8d4fe558ull, 0xd88e73ffc03ec0f6ull, 0xc5d82c34cbb86188ull}},
    {"namd", {0x1167d2af039742e5ull, 0x97a80448175096a7ull, 0x2ed5c11c0d079807ull, 0x8b4026cf619ab500ull}},
    {"gobmk", {0xfb267a56ddd6ae5aull, 0x272e7baabd02d26dull, 0xb4d333c38e1bf7a0ull, 0x2964fa3ce8c79801ull}},
    {"dealII", {0x51df0ffed71b647bull, 0xb7974e642b47a989ull, 0x48f1e3178d1001bbull, 0x450e1b4e6c0fcad9ull}},
    {"soplex", {0xbbd1e63494f517c6ull, 0xa3f23e9504e6add0ull, 0x76f81fa6e11d7498ull, 0xf2fba65d8dd3a53cull}},
    {"povray", {0x31510b8c2b259917ull, 0x73160f7cbb7046ceull, 0xb2a37832ac8e22bcull, 0x2e7fd8f1aa99b3e5ull}},
    {"hmmer", {0xa5e9469ab5ff304eull, 0x5cb7d2a368e84c27ull, 0xd821d19c7f5bc0a9ull, 0xf6954886ae5e759bull}},
    {"sjeng", {0xf79e1c24dada321full, 0x15c4184b4d5ea6a6ull, 0xf67643f8754c8b45ull, 0x7a22ef151fb3f1e8ull}},
    {"libquantum", {0x48087829872eae24ull, 0xdd5beeed999ef6b1ull, 0x2dbb8c0a9a233376ull, 0x15d7787325300d6cull}},
    {"h264ref", {0x94606a9aa42a5a64ull, 0x824ddb10bd007f13ull, 0x9a3b0079fc3fbc64ull, 0xab05ec34f5d01aaeull}},
    {"lbm", {0x48b622cc2a845363ull, 0xf0f89c34ec4c0c08ull, 0xbe28bfb8f2204bcaull, 0xd3773e2d3c389afaull}},
    {"omnetpp", {0xa0b58f19960f9d9full, 0x5ccd8fa1896326baull, 0x1762eafbe914cb64ull, 0x564fc4d96cee6712ull}},
    {"astar", {0xadc4423eb5097c5full, 0x6723172592ac3b11ull, 0x154e6354833dd68aull, 0xe90d519f70c81970ull}},
    {"sphinx3", {0x164b56c1464a47e7ull, 0x79e3396469514a7eull, 0x66e0c4c6c007f207ull, 0x4e53904525206f7aull}},
    {"xalancbmk", {0x497a82ee97c09b9cull, 0x35aedf5ac9852013ull, 0x6ad0a953b6913f92ull, 0xaf027eabe3bfcd17ull}},
    {"barnes", {0x618de9ac9c019e86ull, 0x9d1f81a332ab07cdull, 0x5e07132cc92a0fa8ull, 0xd9f33d51b65f1a7eull}},
    {"cholesky", {0x41018c530c2444c3ull, 0xa199f71fa8d9b923ull, 0xed7c4f08729d9045ull, 0x41072b2e99d00eecull}},
    {"fft", {0x3c2f80ad73de304dull, 0x8baabc7d9a9c252eull, 0x8ee80a361fd122deull, 0x65ac3f53581675b0ull}},
    {"fmm", {0x4d0e26fee1f20ca5ull, 0x8e4cd1e0c4abdb26ull, 0x1e7031f69fbd910bull, 0x2895d71961f97fe2ull}},
    {"lu(cb)", {0x60a2f8277c179dfcull, 0x40a51ca709367e7dull, 0xff44ffb5b6130960ull, 0x337466655bcbf00cull}},
    {"lu(ncb)", {0xb4a04be3cf2a5781ull, 0xfa7690abd5748cabull, 0xe4385114d4da6a20ull, 0xe0bb4f2d6226a069ull}},
    {"ocean(cp)", {0xf17cbf1154fbfbc9ull, 0xeabdd8586454b4dbull, 0xba752ce9f6a70ce1ull, 0xd231bc7da7baacf8ull}},
    {"ocean(ncp)", {0xbcef1c5afba1c2dfull, 0xd1a4d5d77ec6b64bull, 0xc541829cd2ae7331ull, 0xb8223f0153cf2e04ull}},
    {"radix", {0xa123b6fe875c39a3ull, 0x46c7ac78f89a100dull, 0x1bbb716d073f62d8ull, 0xdc88d4c8b27c1521ull}},
    {"radiosity", {0xc646c9a84b184d3full, 0x6f81a04882772ecaull, 0x985bc8bc7f103443ull, 0x24ddb895ed50368full}},
    {"volrend", {0x0725e90d85daeffeull, 0xc328c8884bd5c512ull, 0xfdbccf8e0ca52002ull, 0x78e2ba133fb843faull}},
    {"water(ns)", {0xb31f071449de4dd6ull, 0x294f2f911b15bfccull, 0xe2726d44e83ec1f8ull, 0xe8e80262224ec593ull}},
    {"water(s)", {0xb31f071449de4dd6ull, 0x294f2f911b15bfccull, 0xe2726d44e83ec1f8ull, 0xe8e80262224ec593ull}},
    {"blackscholes", {0x8a4f735ddf68e272ull, 0xc14c045b118432deull, 0x71038ab97c7803bfull, 0xc12ec5c9b76760bdull}},
    {"bodytrack", {0x1d770033d915eba8ull, 0x55da8eafe1ba1ae4ull, 0x467871fea78ff701ull, 0x34f914c2eb6b4b28ull}},
    {"dedup", {0x9b697c0e9bb1a6a6ull, 0x7fe1b33bc55915b0ull, 0xa0539ca47ab1a77cull, 0x1f438bb666760946ull}},
    {"streamcluster", {0xf1c0898ecf14103eull, 0xa9437fdce3d230c7ull, 0x3408612e66d7c7bdull, 0x487d302eca137729ull}},
    {"swaptions", {0x547604d724f6f3d3ull, 0x66b9b299359a0791ull, 0x14746c56af17b1c5ull, 0xd4806c315b33e97aull}},
    {"vips", {0xb8a7212d5bc31d60ull, 0x2c7487cda6f33159ull, 0x9e9303a0e6491615ull, 0xb8b9f42438495660ull}},
    {"raytrace", {0x5d6295761888cbcbull, 0x9005964ed3b5b719ull, 0xa9b8678517f5c2c6ull, 0xa673cd744d411046ull}},
    {"canneal", {0x5d6295761888cbcbull, 0x9005964ed3b5b719ull, 0xa9b8678517f5c2c6ull, 0xa673cd744d411046ull}},
    {"facesim", {0x5d6295761888cbcbull, 0x9005964ed3b5b719ull, 0xa9b8678517f5c2c6ull, 0xa673cd744d411046ull}},
    {"ferret", {0x5d6295761888cbcbull, 0x9005964ed3b5b719ull, 0xa9b8678517f5c2c6ull, 0xa673cd744d411046ull}},
    {"x264", {0x5d6295761888cbcbull, 0x9005964ed3b5b719ull, 0xa9b8678517f5c2c6ull, 0xa673cd744d411046ull}},
    {"fluidanimate", {0x5d6295761888cbcbull, 0x9005964ed3b5b719ull, 0xa9b8678517f5c2c6ull, 0xa673cd744d411046ull}},
    {"freqmine", {0x5d6295761888cbcbull, 0x9005964ed3b5b719ull, 0xa9b8678517f5c2c6ull, 0xa673cd744d411046ull}},
};

const std::vector<GoldenRow> kServerGolden = {
    {"lighttpd/1t/1kb", {0xac2b93145daa8f47ull, 0xfc07c6296a5ea006ull, 0x38401e9242a09b7eull, 0xdedd43476da4f162ull}},
    {"lighttpd/1t/1024kb", {0x09081a2c917aa3e7ull, 0x7aa272d148f2bffeull, 0x7a8a1f14feceae8aull, 0x2c3f0f5b9e1bb7f6ull}},
    {"nginx/4t/1kb", {0xfb6ab35550965abdull, 0x47d38e8a64721faeull, 0x55e633f82059a764ull, 0x629bcf0f0bd338d1ull}},
    {"nginx/4t/1024kb", {0x8cfcdfbde1bc4177ull, 0xc48fbc5a2d2bc6bcull, 0x3d50865c56f1c16aull, 0x3fdad4aa630144a7ull}},
};

const std::vector<GoldenRow> kPlanGolden = {
    {"perlbench/asan-checks", {0xbaa5a072cde3214cull, 0x484403452d4f4d2eull, 0x7cf01607b0b12f60ull, 0xd90c010df89b4106ull}},
    {"perlbench/asan-checks+detect", {0xc519cbf2bdb9f691ull, 0xf15269e20808878dull, 0x8aa6fa050091456full, 0xfc51dec585dc5e77ull}},
    {"perlbench/asan-checks+diverge", {0x8ea184e30a149f4bull, 0x308a573448874339ull, 0xf31d9dba6ec409bbull, 0x247ffd7f6b17b1b3ull}},
    {"perlbench/asan-checks+both", {0x4c61c3d305f3abe1ull, 0xbce2a20fa905fcdfull, 0x50c1d2bd4b104a81ull, 0x1d52c8c4c3c089d9ull}},
    {"radiosity/identical+diverge", {0x1475c3b4aeb1a48full, 0x6cb82e2d4037502cull, 0x67a14507f997fc08ull, 0x214efb2b729206f6ull}},
    {"radiosity/sanitizers+detect", {0x2e0ddd3b4bc8e7e5ull, 0xcf585486e52ae5e8ull, 0xea22520b0ea29b28ull, 0x1e614aaf2cc87bd8ull}},
    {"nginx/identical+both", {0x0309022d2c55ba22ull, 0x5431c917f2b2dcbbull, 0x1286517d892d6aadull, 0x6821da6b6c54677eull}},
};

TEST(TraceGoldenTest, CatalogBenchmarksMatchRecordedDigests) {
  const auto catalog = Catalog();
  const auto specs = VariantSpecs();
  std::vector<std::string> names;
  for (const auto& bench : catalog) {
    names.push_back(bench.name);
  }
  CheckRows(names, kCatalogGolden, [&](size_t i, uint64_t seed) {
    Serializer out;
    for (const auto& spec : specs) {
      out.Trace(workload::BuildTrace(catalog[i], spec, seed));
    }
    return out.Digest();
  });
}

TEST(TraceGoldenTest, ServerSpecsMatchRecordedDigests) {
  const auto servers = Servers();
  const auto specs = VariantSpecs();
  std::vector<std::string> names;
  for (const auto& server : servers) {
    names.push_back(server.name + "/" + std::to_string(server.threads) + "t/" +
                    std::to_string(server.file_kb) + "kb");
  }
  CheckRows(names, kServerGolden, [&](size_t i, uint64_t seed) {
    Serializer out;
    for (const auto& spec : specs) {
      out.Trace(workload::BuildServerTrace(servers[i], spec, seed));
    }
    return out.Digest();
  });
}

// One planned session plus the member subsets BuildPlanTraces is asked for.
struct PlanCase {
  std::string name;
  api::VariantPlan plan;
  std::vector<std::vector<size_t>> member_sets;
};

std::vector<std::vector<size_t>> MemberSets(size_t n) {
  std::vector<std::vector<size_t>> sets;
  std::vector<size_t> all;
  for (size_t v = 0; v < n; ++v) {
    all.push_back(v);
  }
  sets.push_back(all);
  for (size_t k : {2, 3}) {
    for (auto& group : api::ShardMemberGroups(n, k)) {
      sets.push_back(std::move(group));
    }
  }
  return sets;
}

std::vector<PlanCase> PlanCases() {
  const workload::BenchmarkSpec& perlbench = *workload::FindBenchmark("perlbench");
  const workload::BenchmarkSpec& radiosity = *workload::FindBenchmark("radiosity");
  workload::ServerSpec nginx;
  nginx.name = "nginx";
  nginx.threads = 4;

  struct Config {
    std::string name;
    api::NvxBuilder builder;
  };
  std::vector<Config> configs;
  auto checks = [&] {
    api::NvxBuilder b;
    b.Benchmark(perlbench).Variants(5).DistributeChecks(san::SanitizerId::kASan);
    return b;
  };
  configs.push_back({"perlbench/asan-checks", checks()});
  configs.push_back({"perlbench/asan-checks+detect", checks().InjectDetection(2, "__asan_report_store")});
  configs.push_back({"perlbench/asan-checks+diverge", checks().InjectDivergence(3, "exfil")});
  configs.push_back({"perlbench/asan-checks+both",
                     checks().InjectDetection(4, "__asan_report_load").InjectDivergence(1, "x")});
  {
    api::NvxBuilder b;
    b.Benchmark(radiosity).Variants(4).InjectDivergence(0, "leader-tampered");
    configs.push_back({"radiosity/identical+diverge", b});
  }
  {
    api::NvxBuilder b;
    b.Benchmark(radiosity).Variants(3).DistributeSanitizers(
        {san::SanitizerId::kASan, san::SanitizerId::kUBSan});
    b.InjectDetection(1, "__ubsan_report_shift_out_of_bounds");
    configs.push_back({"radiosity/sanitizers+detect", b});
  }
  {
    api::NvxBuilder b;
    b.Server(nginx).Variants(3).InjectDivergence(2, "payload").InjectDetection(1, "__asan_x");
    configs.push_back({"nginx/identical+both", b});
  }

  std::vector<PlanCase> cases;
  for (auto& config : configs) {
    auto plan = config.builder.PlanVariants();
    EXPECT_TRUE(plan.ok()) << config.name << ": " << plan.status().message();
    if (!plan.ok()) {
      continue;
    }
    const size_t n = plan->n_variants();
    cases.push_back({config.name, std::move(*plan), MemberSets(n)});
  }
  return cases;
}

TEST(TraceGoldenTest, PlanTracesWithOverlaysAndShardSubsetsMatchRecordedDigests) {
  const auto cases = PlanCases();
  std::vector<std::string> names;
  for (const auto& c : cases) {
    names.push_back(c.name);
  }
  CheckRows(names, kPlanGolden, [&](size_t i, uint64_t seed) {
    Serializer out;
    for (const auto& members : cases[i].member_sets) {
      std::vector<nxe::VariantTrace> traces;
      const Status built = api::BuildPlanTraces(cases[i].plan, members, seed, &traces);
      EXPECT_TRUE(built.ok()) << cases[i].name << ": " << built.message();
      out.U64(members.size());
      for (const auto& trace : traces) {
        out.Trace(trace);
      }
    }
    return out.Digest();
  });
}

}  // namespace
}  // namespace bunshin
