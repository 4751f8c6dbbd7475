#include "http_client.h"

#include <cctype>
#include <cstdlib>
#include <string_view>

namespace perfbench {

using aql::Result;
using aql::Status;

Result<HttpClient> HttpClient::Connect(uint16_t port) {
  Result<aql::Socket> socket = aql::Socket::ConnectLocal(port);
  if (!socket.ok()) return socket.status();
  AQL_RETURN_IF_ERROR(socket->SetTimeout(std::chrono::milliseconds(30000)));
  return HttpClient(std::move(socket).value());
}

Status HttpClient::Fill(size_t n) {
  while (buffer_.size() - pos_ < n) {
    char chunk[65536];
    Result<size_t> got = socket_.Read(chunk, sizeof(chunk));
    if (!got.ok()) return got.status();
    if (*got == 0) return Status::IoError("connection closed mid-response");
    buffer_.append(chunk, *got);
  }
  return Status::OK();
}

Result<std::string> HttpClient::ReadLine() {
  while (true) {
    size_t eol = buffer_.find("\r\n", pos_);
    if (eol != std::string::npos) {
      std::string line = buffer_.substr(pos_, eol - pos_);
      pos_ = eol + 2;
      return line;
    }
    AQL_RETURN_IF_ERROR(Fill(buffer_.size() - pos_ + 1));
  }
}

Result<HttpReply> HttpClient::Post(const std::string& target, const std::string& body) {
  // Drop what the previous reply consumed.
  buffer_.erase(0, pos_);
  pos_ = 0;
  AQL_RETURN_IF_ERROR(socket_.WriteAll("POST " + target +
                                       " HTTP/1.1\r\nHost: perfbench\r\nContent-Length: " +
                                       std::to_string(body.size()) + "\r\n\r\n" + body));
  HttpReply reply;
  AQL_ASSIGN_OR_RETURN(std::string status_line, ReadLine());
  // "HTTP/1.1 200 OK"
  size_t sp = status_line.find(' ');
  if (sp == std::string::npos) return Status::IoError("bad status line: " + status_line);
  reply.status = std::atoi(status_line.c_str() + sp + 1);
  bool chunked = false;
  size_t length = 0;
  while (true) {
    AQL_ASSIGN_OR_RETURN(std::string header, ReadLine());
    if (header.empty()) break;
    std::string lower;
    for (char c : header) lower += char(std::tolower(static_cast<unsigned char>(c)));
    if (lower.rfind("transfer-encoding:", 0) == 0 &&
        lower.find("chunked") != std::string::npos) {
      chunked = true;
    } else if (lower.rfind("content-length:", 0) == 0) {
      length = std::strtoull(lower.c_str() + 15, nullptr, 10);
    }
  }
  if (!chunked) {
    AQL_RETURN_IF_ERROR(Fill(length));
    reply.body = buffer_.substr(pos_, length);
    pos_ += length;
    return reply;
  }
  while (true) {
    AQL_ASSIGN_OR_RETURN(std::string size_line, ReadLine());
    size_t size = std::strtoull(size_line.c_str(), nullptr, 16);
    if (size == 0) {
      AQL_ASSIGN_OR_RETURN(std::string trailer, ReadLine());
      (void)trailer;
      return reply;
    }
    AQL_RETURN_IF_ERROR(Fill(size + 2));
    reply.body.append(buffer_, pos_, size);
    pos_ += size + 2;
  }
}

}  // namespace perfbench
