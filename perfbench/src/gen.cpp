#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <thread>

#include "frontend/parser.hpp"
#include "ir/eval.hpp"
#include "ir/symbol.hpp"

namespace perfbench {

namespace {

/// splitmix64: small, fast, and identical on every platform (unlike the
/// standard distributions, whose output is implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi] (inclusive).
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
  }

 private:
  std::uint64_t state_;
};

/// Mixes three words into one seed (order-sensitive).
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  Rng rng(a);
  Rng second(rng.next() ^ (b * 0x9E3779B97F4A7C15ull));
  return second.next() ^ (c * 0xC2B2AE3D27D4EB4Full);
}

/// Two independent 64-bit hashes over the raw bits of `data`.
std::array<std::uint64_t, 2> digest(std::span<const double> data) {
  std::uint64_t a = 0x243F6A8885A308D3ull ^ data.size();
  std::uint64_t b = 0x13198A2E03707344ull + data.size();
  for (const double d : data) {
    std::uint64_t w = 0;
    std::memcpy(&w, &d, sizeof w);
    a = (a ^ w) * 0x9E3779B97F4A7C15ull;
    a ^= a >> 29;
    b = (b + w) * 0xC2B2AE3D27D4EB4Full;
    b ^= b >> 31;
  }
  return {a, b};
}

/// Odd primes up to 40000 (2 is left out so that no worker count of 2 or 4
/// divides a rectangular extent product).
const std::vector<std::int64_t>& odd_primes() {
  static const std::vector<std::int64_t> primes = [] {
    constexpr int kMax = 40000;
    std::vector<bool> composite(kMax + 1, false);
    std::vector<std::int64_t> out;
    for (int n = 2; n <= kMax; ++n) {
      if (composite[n]) continue;
      if (n > 2) out.push_back(n);
      for (long m = static_cast<long>(n) * n; m <= kMax; m += n) {
        composite[m] = true;
      }
    }
    return out;
  }();
  return primes;
}

std::int64_t prime_near(Rng& rng, double lo, double hi) {
  const auto& primes = odd_primes();
  auto first = std::lower_bound(primes.begin(), primes.end(),
                                static_cast<std::int64_t>(std::max(3.0, lo)));
  auto last = std::upper_bound(primes.begin(), primes.end(),
                               static_cast<std::int64_t>(hi));
  if (first == primes.end()) return primes.back();
  if (last <= first) return *first;
  return *(first + rng.range(0, (last - first) - 1));
}

std::string base36(std::uint64_t v) {
  static const char digits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  std::string out;
  do {
    out.insert(out.begin(), digits[v % 36]);
    v /= 36;
  } while (v != 0);
  return out;
}

struct Shape {
  std::vector<std::int64_t> extents;
  /// The last level runs 1..(previous level's variable).
  bool triangular = false;
  /// Trip count of a sequential inner `do`; 0 = none.
  std::int64_t inner_do = 0;
  /// Statement templates of the innermost body, in order.
  std::vector<int> bodies;
};

std::int64_t iterations(const Shape& s) {
  const std::size_t d = s.extents.size();
  if (!s.triangular) {
    std::int64_t n = 1;
    for (const std::int64_t e : s.extents) n *= e;
    return n;
  }
  std::int64_t n = 1;
  for (std::size_t l = 0; l + 2 < d; ++l) n *= s.extents[l];
  const std::int64_t e = s.extents[d - 2];
  return n * e * (e + 1) / 2;
}

/// Picks prime extents until the nest's iteration count lands in [lo, hi].
Shape random_extents(Rng& rng, int depth, bool triangular, std::int64_t lo,
                     std::int64_t hi) {
  Shape s;
  s.triangular = triangular && depth >= 2;
  for (int attempt = 0; attempt < 2000; ++attempt) {
    const double target = static_cast<double>(rng.range(lo, hi));
    // A triangular pair covers about e^2/2 points.
    const double root =
        std::pow(s.triangular ? target * 2.0 : target, 1.0 / depth);
    s.extents.assign(static_cast<std::size_t>(depth), 0);
    for (int l = 0; l < depth; ++l) {
      s.extents[static_cast<std::size_t>(l)] =
          prime_near(rng, root * 0.5, root * 1.8);
    }
    if (s.triangular) {
      s.extents[static_cast<std::size_t>(depth - 1)] =
          s.extents[static_cast<std::size_t>(depth - 2)];
    }
    const std::int64_t n = iterations(s);
    if (n >= lo && n <= hi) return s;
  }
  s.triangular = false;
  s.extents = {prime_near(rng, static_cast<double>(lo),
                          static_cast<double>(hi))};
  return s;
}

struct Names {
  std::string x, y, t, k;
  std::vector<std::string> v;
};

Names make_names(const std::string& tag, std::size_t depth) {
  Names n{"X" + tag, "Y" + tag, "t" + tag, "k" + tag, {}};
  for (std::size_t l = 0; l < depth; ++l) {
    n.v.push_back("i" + tag + "_" + std::to_string(l));
  }
  return n;
}

bool uses_scalar(const Shape& s) {
  return std::find(s.bodies.begin(), s.bodies.end(), 3) != s.bodies.end();
}

std::string dims(const Shape& s) {
  std::string out;
  for (const std::int64_t e : s.extents) {
    out.append("[").append(std::to_string(e)).append("]");
  }
  return out;
}

void emit_decls(std::string& out, const Shape& s, const Names& n) {
  out += "array " + n.x + dims(s) + "; array " + n.y + dims(s) + ";";
  if (uses_scalar(s)) out += " scalar " + n.t + ";";
  out += "\n";
}

std::string n2s(std::int64_t v) { return std::to_string(v); }

/// The innermost body: every write is subscripted by every DOALL variable,
/// so each iteration owns its elements and the nest is race-free.
void emit_body(std::string& out, const Shape& s, const Names& n, Rng& rng,
               const std::string& pad) {
  std::string sub;
  for (const std::string& v : n.v) sub += "[" + v + "]";
  const std::string x = n.x + sub;
  const std::string y = n.y + sub;
  const std::string& vf = n.v.front();
  const std::string& vl = n.v.back();
  for (const int body : s.bodies) {
    const std::int64_t c0 = rng.range(0, 9);
    const std::int64_t c1 = rng.range(1, 7);
    const std::int64_t c2 = rng.range(2, 9);
    switch (body) {
      case 0:
        out += pad + x + " = " + vf + " * " + n2s(c1) + " + " + vl + " * " +
               n2s(c2) + " + " + n2s(c0) + ";\n";
        break;
      case 1:
        out += pad + x + " = " + x + " * 2 + " + vf + " - " + vl + ";\n";
        break;
      case 2:
        out += pad + y + " = " + vf + " + " + n2s(c1) + ";\n";
        out += pad + x + " = " + y + " * " + n2s(c2) + " + " + vl + ";\n";
        break;
      case 3:
        out += pad + n.t + " = " + vf + " * " + n2s(c1) + " + " + vl + ";\n";
        out += pad + x + " = " + n.t + " * 2 + " + n.t + " - " + n2s(c0) +
               ";\n";
        break;
      default:
        out += pad + x + " = mod(" + vf + " * " + n2s(c1) + ", " + n2s(c2) +
               ") + max(" + vl + ", " + n2s(c0) + ") + min(" + vf + ", " +
               n2s(c1) + ");\n";
        break;
    }
  }
  if (s.inner_do > 0) {
    const std::int64_t c1 = rng.range(1, 7);
    const std::int64_t c2 = rng.range(2, 9);
    out += pad + y + " = " + vl + " + " + n2s(c1) + ";\n";
    out += pad + "do " + n.k + " = 1, " + n2s(s.inner_do) + " {\n";
    out += pad + "  " + x + " = " + x + " + " + y + " * " + n.k + " + " +
           n2s(c2) + ";\n";
    out += pad + "}\n";
  }
}

void emit_nest(std::string& out, const Shape& s, const Names& n, Rng& rng) {
  const std::size_t d = s.extents.size();
  std::string pad;
  for (std::size_t l = 0; l < d; ++l) {
    const std::string bound = s.triangular && l == d - 1
                                  ? n.v[d - 2]
                                  : std::to_string(s.extents[l]);
    out += pad + "doall " + n.v[l] + " = 1, " + bound + " {\n";
    pad += "  ";
  }
  emit_body(out, s, n, rng, pad);
  for (std::size_t l = d; l-- > 0;) {
    pad.resize(pad.size() - 2);
    out += pad + "}\n";
  }
}

/// Admission-rejected inputs: the repository's *.bad.loop / *.racy.loop
/// examples with every identifier replaced. Phases are those the admission
/// pipeline (verify -> lint -> race) is specified to stop at: the IR
/// verifier refuses a literal division by zero, the linter overflowing
/// bands and unprivatized scalars, the race pass carried dependences.
struct BadTemplate {
  const char* text;
  const char* phase;
};
constexpr BadTemplate kBad[] = {
    // examples/loops/div_zero.bad.loop
    {"array $A[8]; array $B[8];\ndoall $i = 1, 8 {\n"
     "  $B[$i] = $A[fdiv($i, 0) + 1];\n}\n",
     "verify"},
    // examples/loops/overflow.bad.loop
    {"array $A[4];\ndoall $i = 1, 4000000000 {\n"
     "  doall $j = 1, 4000000000 {\n    $A[1] = 0;\n  }\n}\n",
     "lint"},
    // examples/loops/racy_scalar.bad.loop
    {"array $A[32]; scalar $s;\ndoall $i = 1, 32 {\n"
     "  $s = $s + $A[$i];\n  $A[$i] = $s;\n}\n",
     "lint"},
    // examples/loops/histogram.racy.loop
    {"array $H[4]; array $A[64];\ndoall $i = 1, 64 {\n"
     "  $H[1] = $H[1] + $A[$i];\n}\n",
     "race"},
    // examples/loops/recurrence.racy.loop
    {"array $A[64];\ndoall $i = 2, 64 {\n  $A[$i] = $A[$i - 1] + 1;\n}\n",
     "race"},
};

Case bad_case(const BadTemplate& t, const std::string& tag) {
  std::string out;
  for (const char* p = t.text; *p != '\0'; ++p) {
    if (*p != '$') {
      out += *p;
      continue;
    }
    ++p;  // one placeholder letter follows
    out += std::string(1, *p) + "q" + tag;
  }
  Case c;
  c.source = std::move(out);
  c.admit = false;
  c.phase = t.phase;
  return c;
}

std::vector<RefArray> reference_arrays(const std::string& source) {
  auto parsed = coalesce::frontend::parse_program(source);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: generated program does not parse: %s\n%s",
                 parsed.error().to_string().c_str(), source.c_str());
    std::abort();
  }
  const coalesce::ir::Program& program = parsed.value();
  coalesce::ir::Evaluator eval(program.symbols);
  for (const auto& root : program.roots) eval.run(*root);
  std::vector<RefArray> out;
  const auto& symbols = program.symbols;
  for (std::uint32_t raw = 0; raw < symbols.size(); ++raw) {
    const coalesce::ir::VarId id{raw};
    if (symbols.kind(id) != coalesce::ir::SymbolKind::kArray) continue;
    const auto data = eval.store().data(id);
    out.push_back(RefArray{symbols.name(id), data.size(), digest(data)});
  }
  return out;
}

}  // namespace

std::vector<Case> jit_pool(std::uint64_t seed) {
  // Stratified: the seed picks extents, constants and names, while depth,
  // size class, shape and statements follow the program's slot, so every
  // seed offers the same mix of work.
  constexpr std::int64_t kSizes[] = {320, 720, 1500, 3000};
  std::vector<Case> pool;
  for (int p = 0; p < 16; ++p) {
    Rng rng(mix(seed, 1, static_cast<std::uint64_t>(p)));
    const int depth = 1 + p % 4;
    const std::int64_t size = kSizes[p / 4];
    Shape s = random_extents(rng, depth, (p / 4) % 2 == 1, size * 85 / 100,
                             size * 115 / 100);
    s.inner_do = p % 3 == 0 ? 3 : 0;
    s.bodies = {p % 5, (p + 3) % 5};
    const Names n = make_names(
        std::string("p").append(base36(static_cast<std::uint64_t>(p))),
        s.extents.size());
    Case c;
    emit_decls(c.source, s, n);
    emit_nest(c.source, s, n, rng);
    pool.push_back(std::move(c));
  }
  // Two programs admission must reject: one stopped by verify or lint, one
  // by the race pass.
  for (int p = 16; p < 18; ++p) {
    Rng rng(mix(seed, 1, static_cast<std::uint64_t>(p)));
    const std::int64_t t = p == 16 ? rng.range(0, 2) : rng.range(3, 4);
    pool.push_back(bad_case(kBad[t], std::string("p").append(
                                         base36(static_cast<std::uint64_t>(p)))));
  }
  return pool;
}

std::vector<Case> lib_corpus(std::uint64_t seed) {
  // Stratified like jit_pool: the slot fixes the structure, the seed the
  // details.
  constexpr std::int64_t kSizes[] = {256, 512, 1024, 2048};
  std::vector<Case> corpus;
  for (int p = 0; p < 24; ++p) {
    Rng rng(mix(seed, 2, static_cast<std::uint64_t>(p)));
    const int nests = 1 + p % 2;
    std::string decls;
    std::string loops;
    std::string first_array;
    std::string first_origin;
    for (int r = 0; r < nests; ++r) {
      const int slot = p + r;
      const int depth = 1 + slot % 3;
      const std::int64_t size = kSizes[(p / 2 + r) % 4];
      Shape s = random_extents(rng, depth, slot % 4 == 1, size * 85 / 100,
                               size * 115 / 100);
      s.inner_do = slot % 3 == 1 ? 2 : 0;
      s.bodies = {slot % 5};
      const Names n = make_names(std::string("L")
                                     .append(base36(static_cast<std::uint64_t>(p)))
                                     .append("r")
                                     .append(std::to_string(r)),
                                 s.extents.size());
      emit_decls(decls, s, n);
      emit_nest(loops, s, n, rng);
      if (r == 0) {
        first_array = n.x;
        for (std::size_t l = 0; l < s.extents.size(); ++l) first_origin += "[1]";
      }
    }
    if (p % 3 == 0) {
      // A first-order recurrence: analysis must leave it sequential, so it
      // runs on the calling thread through ir::Evaluator.
      const std::int64_t m = prime_near(rng, 170, 230);
      const std::string tag =
          std::string("L").append(base36(static_cast<std::uint64_t>(p))).append("s");
      decls += "array S" + tag + "[" + std::to_string(m) + "];\n";
      loops += "do k" + tag + " = 2, " + std::to_string(m) + " {\n  S" + tag +
               "[k" + tag + "] = S" + tag + "[k" + tag + " - 1] + " +
               first_array + first_origin + " + k" + tag + ";\n}\n";
    }
    Case c;
    c.source = decls + loops;
    corpus.push_back(std::move(c));
  }
  return corpus;
}

void compute_references(std::vector<Case>& cases, unsigned threads) {
  threads = std::max(1u, threads);
  std::vector<std::thread> crew;
  for (unsigned t = 0; t < threads; ++t) {
    crew.emplace_back([&cases, t, threads] {
      for (std::size_t i = t; i < cases.size(); i += threads) {
        if (cases[i].admit) cases[i].reference = reference_arrays(cases[i].source);
      }
    });
  }
  for (std::thread& th : crew) th.join();
}

std::string compare_arrays(const std::vector<RefArray>& want,
                           const std::vector<ArrayView>& got) {
  if (want.size() != got.size()) {
    return "array count " + std::to_string(got.size()) + ", want " +
           std::to_string(want.size());
  }
  for (const RefArray& w : want) {
    const auto g = std::find_if(got.begin(), got.end(), [&](const ArrayView& a) {
      return a.name == w.name;
    });
    if (g == got.end()) return "array " + w.name + " missing";
    if (w.size != g->data.size()) {
      return "array " + w.name + " has " + std::to_string(g->data.size()) +
             " elements, want " + std::to_string(w.size);
    }
    if (digest(g->data) != w.digest) return "array " + w.name + " differs";
  }
  return "";
}

bool apply_fault(const std::string& fault, std::vector<Case>& cases) {
  for (Case& c : cases) {
    if (fault == "corrupt_reference" && c.admit && !c.reference.empty()) {
      c.reference.front().digest[0] ^= 1;  // as if one bit of the array flipped
      return true;
    }
    if (fault == "wrong_phase" && !c.admit) {
      c.phase = c.phase == "race" ? "lint" : "race";
      return true;
    }
  }
  return false;
}

void write_cases(std::ostream& out, const std::vector<Case>& cases) {
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    out << "case " << i << " admit=" << c.admit << " phase=" << c.phase
        << " bytes=" << c.source.size() << "\n"
        << c.source;
    for (const RefArray& a : c.reference) {
      out << "ref " << a.name << " " << a.size << " " << std::hex
          << a.digest[0] << " " << a.digest[1] << std::dec << "\n";
    }
  }
}

}  // namespace perfbench
