#include "load.h"

#include <mutex>
#include <thread>
#include <vector>

#include "net/client.h"
#include "vdms/api.h"

namespace perfbench {

namespace {

void Connect(vdt::net::VdtClient* client, uint16_t port) {
  const vdt::Status st = client->Connect("127.0.0.1", port);
  if (!st.ok()) Fatal("connect: " + st.ToString());
}

/// One Search round trip; records the op and returns whether it succeeded.
bool SearchOnce(OpCounter* ops, vdt::net::VdtClient* client,
                const std::string& collection, const vdt::FloatMatrix& queries,
                size_t q, size_t k, vdt::net::SearchReplyWire* reply) {
  vdt::Result<vdt::net::SearchReplyWire> result = [&] {
    Span span("net", "VdtClient::Search");
    return client->Search(collection, vdt::SearchRequest::Single(
                                          queries.Row(q), queries.dim(), k));
  }();
  ops->Record("Search", result.status());
  if (!result.ok()) return false;
  *reply = std::move(*result);
  return true;
}

}  // namespace

LoadResult RunPaced(OpCounter* ops, uint16_t port,
                    const std::string& collection,
                    const vdt::FloatMatrix& queries, size_t k, double rate,
                    size_t count, size_t connections,
                    const std::atomic<bool>* stop, const SendToken& token,
                    const ReplyCheck& check) {
  std::vector<LoadResult> partial(connections);
  const auto interval = std::chrono::duration<double>(1.0 / rate);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& out = partial[c];
      vdt::net::VdtClient client;
      Connect(&client, port);
      vdt::net::SearchReplyWire reply;
      for (size_t i = c;; i += connections) {
        if (count != 0 && i >= count) break;
        if (count == 0 && stop->load(std::memory_order_acquire)) break;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        interval * static_cast<double>(i));
        std::this_thread::sleep_until(due);
        const uint64_t tok = token ? token() : 0;
        const Clock::time_point sent = Clock::now();
        const size_t q = i % queries.rows();
        if (!SearchOnce(ops, &client, collection, queries, q, k, &reply)) {
          continue;
        }
        const Clock::time_point done = Clock::now();
        out.latency_us.Add(MicrosBetween(due, done));
        out.service_us.Add(MicrosBetween(sent, done));
        out.lateness_us.Add(MicrosBetween(due, sent));
        if (check) check(q, tok, reply);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult total;
  total.elapsed_s = SecondsSince(start);
  for (const LoadResult& r : partial) {
    total.latency_us.Append(r.latency_us);
    total.service_us.Append(r.service_us);
    total.lateness_us.Append(r.lateness_us);
  }
  return total;
}

LoadResult RunClosed(OpCounter* ops, uint16_t port,
                     const std::string& collection,
                     const vdt::FloatMatrix& queries, size_t k, double seconds,
                     size_t connections, const ReplyCheck& check) {
  std::vector<LoadResult> partial(connections);
  std::vector<vdt::net::VdtClient> clients(connections);
  for (vdt::net::VdtClient& client : clients) Connect(&client, port);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  // Replies are kept and checked after the timed window, so the checks do
  // not take CPU from the server while it is being measured.
  std::vector<std::vector<std::pair<size_t, vdt::net::SearchReplyWire>>>
      replies(connections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& out = partial[c];
      vdt::net::SearchReplyWire reply;
      for (size_t i = c; Clock::now() < deadline; i += connections) {
        const size_t q = i % queries.rows();
        if (!SearchOnce(ops, &clients[c], collection, queries, q, k, &reply)) {
          continue;
        }
        out.completions_s.push_back(SecondsSince(start));
        replies[c].emplace_back(q, std::move(reply));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult total;
  total.elapsed_s = SecondsSince(start);
  for (const LoadResult& r : partial) {
    total.completions_s.insert(total.completions_s.end(),
                               r.completions_s.begin(), r.completions_s.end());
  }
  if (check) {
    for (const auto& connection : replies) {
      for (const auto& [q, kept] : connection) check(q, 0, kept);
    }
  }
  return total;
}

}  // namespace perfbench
