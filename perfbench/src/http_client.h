// A blocking keep-alive HTTP/1.1 client for POST /query on loopback:
// one request at a time, the chunked (or Content-Length) response body
// de-framed into a string.

#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>

#include "base/result.h"
#include "base/socket.h"

namespace perfbench {

struct HttpReply {
  int status = 0;
  std::string body;
};

class HttpClient {
 public:
  static aql::Result<HttpClient> Connect(uint16_t port);

  // POSTs `body` to `target` (e.g. "/query") and reads the full reply.
  aql::Result<HttpReply> Post(const std::string& target, const std::string& body);

 private:
  explicit HttpClient(aql::Socket socket) : socket_(std::move(socket)) {}
  // Makes at least `n` unread bytes available past pos_.
  aql::Status Fill(size_t n);
  aql::Result<std::string> ReadLine();

  aql::Socket socket_;
  std::string buffer_;
  size_t pos_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
