thread_local constinit int* current = nullptr;
