// Fixture: must trip exactly the raw-socket rule.
#include <sys/socket.h>

int open_radio_backdoor() {
  const int fd = ::socket(2 /*AF_INET*/, 2 /*SOCK_DGRAM*/, 0);
  return fd;
}
