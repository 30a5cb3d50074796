//===- perfbench/src/Trace.cpp - In-memory spans around layer calls ------===//

#include "Trace.h"

#include <cstdio>

namespace perfbench {

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

size_t Tracer::open(const char *Name, std::string Tag) {
  SpanRecord S;
  S.Name = Name;
  S.Tag = std::move(Tag);
  S.Parent = Stack.empty() ? -1 : static_cast<int64_t>(Stack.back());
  Spans.push_back(std::move(S));
  size_t Index = Spans.size() - 1;
  Stack.push_back(Index);
  // Timestamp last, so the bookkeeping above is not charged to the span.
  Spans[Index].StartNs = nowNs();
  return Index;
}

void Tracer::close(size_t Index, uint64_t Count) {
  uint64_t End = nowNs();
  SpanRecord &S = Spans[Index];
  S.EndNs = End;
  S.Count = Count;
  Stack.pop_back();
  if (S.Parent >= 0)
    Spans[static_cast<size_t>(S.Parent)].ChildNs += S.durNs();
}

double Tracer::sumMs(const std::string &Name, const std::string &Tag) const {
  uint64_t Ns = 0;
  for (size_t I = WindowStart; I < Spans.size(); ++I)
    if (Spans[I].Name == Name && (Tag.empty() || Spans[I].Tag == Tag))
      Ns += Spans[I].durNs();
  return static_cast<double>(Ns) / 1e6;
}

uint64_t Tracer::sumCount(const std::string &Name,
                          const std::string &Tag) const {
  uint64_t C = 0;
  for (size_t I = WindowStart; I < Spans.size(); ++I)
    if (Spans[I].Name == Name && (Tag.empty() || Spans[I].Tag == Tag))
      C += Spans[I].Count;
  return C;
}

std::map<std::string, double> Tracer::selfMsByName() const {
  std::map<std::string, double> Self;
  for (const SpanRecord &S : Spans)
    Self[S.Name] += static_cast<double>(S.selfNs()) / 1e6;
  return Self;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fprintf(F, "{\"traceEvents\":[\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"count\":%llu,\"self_us\":%.3f}}\n",
                 I ? "," : "", S.Name.c_str(), S.Tag.c_str(),
                 static_cast<double>(S.StartNs - Base) / 1e3,
                 static_cast<double>(S.durNs()) / 1e3, I,
                 static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.Count),
                 static_cast<double>(S.selfNs()) / 1e3);
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench
